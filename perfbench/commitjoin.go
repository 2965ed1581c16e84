package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"atk/internal/class"
	"atk/internal/components"
	"atk/internal/text"
)

// commit_join: writes beside reads on an unstyled ~1 MB document.
//
// One writer runs closed loop: one keystroke, wait for its ack, think for
// joinThink, repeat. One churner attaches open loop at 4 attaches/s with a
// fresh client ID each time, as a new editor window would, checks what it
// got, and leaves. This is per-commit cost at capacity (codec, host lock,
// journal append and fsync, socket) side by side with the snapshot path
// (encode, chunk, decode). With a single writer, no styles and no table,
// transforms and style checkpoints do no work: a gain claimed for them
// must show no change here, and an attach change that slows commits shows
// up here too.
//
// Sizing: 1 MB encodes well under the 8 MB frame limit, so every attach
// stays on the single-frame snapshot path (docserve.snap_chunks reads 0).
// The writer thinks between keys because at capacity it outruns joiners:
// with no think time it committed ~12,000 keys/s and 23 of 24 attaches
// were cut as slow consumers, their 256-frame queue full of commits before
// their catch-up ended. The think time spins rather than sleeps: letting
// the vCPUs go idle between commits made every commit pay a wake-up,
// which nearly doubled the commit p50 and swung it by ±15% between runs.
//
// The journal is fsync'd every 8 appends under the host lock, so one
// commit in eight carries an fsync and the commit p90 follows the
// filesystem's fsync latency. On the VM's virtual disk, over six runs:
// commit p50 71-83 µs, p90 215-335 µs, 1818-2339 commits/s. On tmpfs:
// p50 61-65 µs, p90 124-154 µs, 2337-2514 commits/s, attach p50 82-97 ms.
// The disk's spread was wider than any bound the benchmark may set, so the
// files live on tmpfs (see openStorage).
const (
	joinLines       = 16000
	joinWidth       = 64
	joinAttachEvery = 250 * time.Millisecond // 4 attaches/s
	joinThink       = 300 * time.Microsecond
)

// lengths publishes the document length after each of the writer's ops,
// so a churner can check an attach against its Confirmed seq: with one
// writer and no checkpoints, seq s is exactly the writer's first s ops.
type lengths struct {
	mu sync.Mutex
	at []int // at[s] = document length at seq s
}

func (l *lengths) push(n int) {
	l.mu.Lock()
	l.at = append(l.at, n)
	l.mu.Unlock()
}

func (l *lengths) get(seq uint64) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= uint64(len(l.at)) {
		return 0, false
	}
	return l.at[seq], true
}

// runCommitJoin is one round of the commit_join workload.
func runCommitJoin(env *roundEnv) (*roundResult, error) {
	rng := rand.New(rand.NewSource(env.seed))
	reg, err := components.StandardRegistry()
	if err != nil {
		return nil, err
	}
	doc := text.NewString(docText(rng, joinLines, joinWidth))
	doc.SetRegistry(reg)
	path, base, err := saveDoc(env.dir, doc)
	if err != nil {
		return nil, err
	}
	regW, err := components.NewRegistry()
	if err != nil {
		return nil, err
	}
	regJ, err := components.NewRegistry()
	if err != nil {
		return nil, err
	}

	// Set-up: OpenHostFile -> the writer live.
	t0 := time.Now()
	srv, err := startServer(path, base, env.meter)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	sw, err := srv.connect("w", regW)
	if err != nil {
		return nil, err
	}
	defer sw.c.Close()
	res := &roundResult{setup: time.Since(t0)}
	if env.setupOnly {
		return res, nil
	}

	ph := env.beginPhase(srv)
	start := time.Now()
	end := start.Add(env.phase)
	w := &writer{ss: sw, tr: env.tracer()}
	lens := &lengths{at: []int{sw.c.Doc().Len()}}

	var wg sync.WaitGroup
	var joins joinResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		joins = churn(srv, regJ, lens, schedule{start: start, period: joinAttachEvery}, end)
	}()
	d := sw.c.Doc()
	typ := newTypist(rand.New(rand.NewSource(env.seed+1)), d.LineStart(d.Len()/2))
	for i := 0; time.Now().Before(end) && w.err == nil; i++ {
		k := typ.next(d.Len(), d.LineStart)
		lens.push(d.Len() + k.delta())
		w.sent = append(w.sent, time.Now())
		w.edit(i+1, func() error { return k.apply(d) })
		w.awaitAck(drainTimeout)
		spinUntil(time.Now().Add(joinThink), nil)
	}
	wg.Wait()
	env.endPhase(ph, res, len(w.sent))

	gate := w.err
	if gate == nil {
		gate = joins.err
	}
	if gate == nil {
		gate = collabGate(srv, w)
	}
	if gate == nil {
		gate = env.replayStages(srv.base, srv.path, hostSnapshot(srv), reg)
	}
	if env.traced {
		l := env.layer
		l.attaches += joins.attempted
		l.pendingMax = max(l.pendingMax, w.pendMax)
		l.pumps += w.pumps
		l.pumpTime += w.pumpTime
		l.connectMs = append(l.connectMs, msOf(sw.attach))
		l.connectMs = append(l.connectMs, joins.connectMs...)
		l.attachBytes = append(l.attachBytes, joins.bytes...)
		env.netLayer(srv, []*session{sw})
	}
	if err := srv.shutdown(sw); err != nil && gate == nil {
		gate = err
	}
	res.op = w.commit
	res.done = w.acked // ops_per_s is the writer's commits per second
	res.aux = joins.lat
	res.late = joins.late
	res.attempted = len(w.sent) + joins.attempted
	res.failed = len(w.sent) - w.acked + joins.attempted - joins.ok
	res.gate = gate
	return res, nil
}

// joinResult is what the churner saw.
type joinResult struct {
	lat, late, connectMs, bytes []float64
	attempted, ok               int
	err                         error // a wrong document, which fails the gate
}

// churn attaches open loop until end. Each attach is timed from its due
// time to live; it must reach live with a document length consistent
// with its Confirmed seq.
func churn(srv *served, reg *class.Registry, lens *lengths, s schedule, end time.Time) joinResult {
	var r joinResult
	r.late = openLoop(s, end, sleepUntil, func(i int, due time.Time) {
		r.attempted++
		ss, err := srv.connect(fmt.Sprintf("join%d", i), reg)
		if err != nil {
			return // counted as failed: attempted but never ok
		}
		r.lat = append(r.lat, durUs(time.Since(due)))
		c := ss.c
		want, ok := lens.get(c.Confirmed())
		if !c.Live() || !ok || c.Doc().Len() != want {
			if r.err == nil {
				r.err = fmt.Errorf("attach %d: live=%v at seq %d with %d runes, want %d", i, c.Live(), c.Confirmed(), c.Doc().Len(), want)
			}
		} else {
			r.ok++
		}
		if ss.tc != nil {
			r.connectMs = append(r.connectMs, msOf(ss.attach))
			r.bytes = append(r.bytes, float64(ss.attachB))
		}
		_ = c.Close() // the session's end is not part of the measurement
	})
	return r
}
