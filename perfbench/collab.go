package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"atk/internal/components"
	"atk/internal/core"
	"atk/internal/persist"
	"atk/internal/table"
	"atk/internal/text"
)

// collab: two sessions on one styled document, each the other's reader.
//
// Session A types text open loop at 400 keys/s (see typist); session B sets
// cells of an embedded 16x16 table open loop at 100 ops/s, with an
// occasional row insert or delete. This is the latency a collaborating
// user feels, and the only workload where rebasing across another writer,
// cross-kind table/text transforms and the host's style checkpoints do
// real work.
//
// Why open loop: with both writers running back to back, the text-to-table
// mix changed from run to run (allocs/op 76-152), and every per-op figure
// moved with it. A fixed schedule fixes the mix, so ops_per_s only proves
// the offered load was served.
//
// Sizing: the document is ~100 KB of prose in 1600 lines with 200 style
// runs. On a styled document every text commit makes the host republish
// its run list as a checkpoint (~3 KB of journal and wire per op). At the
// offered 500 ops/s the host is far from saturation (outbound queues stay
// at depth <= 1), yet the commit p50 (410-450 µs on a 2-vCPU Xeon) is
// about ten times the p50 of back-to-back commits on the same document
// (35-43 µs): goroutine and vCPU wake-ups dominate it, so a change that
// removes hops per commit shows here. With the journal on the VM's virtual
// disk instead of tmpfs the commit p90 read 827-1071 µs over six runs,
// against 528-641 µs on tmpfs. p99 moved by a third between runs, so the
// checked tail is p90.
const (
	collabLines     = 1600
	collabWidth     = 62
	collabRuns      = 200
	collabTableDim  = 16
	collabKeyEvery  = 2500 * time.Microsecond // 400 keys/s
	collabCellEvery = 10 * time.Millisecond   // 100 ops/s
)

// deadline for an op's ack or delivery after the measured phase ends.
const drainTimeout = 5 * time.Second

// writer is the owner goroutine's state for one writing session.
type writer struct {
	ss      *session
	tr      *tracer
	sent    []time.Time // due time of each own op, in send order
	acked   int
	commit  []float64 // µs, own ops: due -> covering ack seen
	deliver []float64 // µs, the other writer's ops: due -> applied here
	late    []float64
	pendMax int
	err     error
	// pumps and pumpTime count the non-blocking Pump calls that applied
	// at least one frame (traced pass only).
	pumps    int
	pumpTime time.Duration
}

// checkAcks credits acks: the replica's pending records are exactly the
// unacknowledged tail of this writer's ops, in order.
func (w *writer) checkAcks() {
	now := time.Now()
	acked := len(w.sent) - w.ss.c.PendingCount()
	for ; w.acked < acked; w.acked++ {
		w.commit = append(w.commit, durUs(now.Sub(w.sent[w.acked])))
	}
}

// poll is one non-blocking Pump. It reports progress when the replica
// applied a frame (its confirmed seq moved), and stops the caller's spin
// on an error.
func (w *writer) poll() (progress, ok bool) {
	seq := w.ss.c.Confirmed()
	t0 := time.Now()
	err := w.ss.c.Pump()
	progress = w.ss.c.Confirmed() != seq
	if progress && w.tr != nil {
		w.pumps++
		w.pumpTime += time.Since(t0)
	}
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return progress, false
	}
	w.checkAcks()
	return progress, true
}

// pumpUntil applies incoming frames until t, crediting acks as they land:
// by timed waits until spinWindow before t, then by polling.
func (w *writer) pumpUntil(t time.Time) {
	for {
		rem := time.Until(t) - spinWindow
		if rem <= 0 {
			break
		}
		if err := w.ss.c.PumpWait(rem); err != nil {
			if w.err == nil {
				w.err = err
			}
			sleepUntil(t)
			return
		}
		w.checkAcks()
	}
	spinUntil(t, w.poll)
	if w.err != nil {
		sleepUntil(t)
	}
}

// edit performs one local edit, timed as client.edit when traced; the
// client's socket write inside it is the edit span's child.
func (w *writer) edit(op int, f func() error) {
	var id int
	var t0 time.Time
	if w.tr != nil {
		id = w.tr.newID()
		w.ss.tc.parent.Store(int64(id))
		t0 = time.Now()
	}
	err := f()
	if w.tr != nil {
		w.tr.recordID(id, "client.edit", 0, op, t0, time.Now())
	}
	if err != nil && w.err == nil {
		w.err = err
	}
	if n := w.ss.c.PendingCount(); n > w.pendMax {
		w.pendMax = n
	}
}

// awaitAck is Client.Sync with its non-blocking pumps timed: a blocking
// wait for the ack that covers every own op. (Polling for it instead
// starved the runtime's network poller: a goroutine yielding in a loop
// keeps its P, and with the churner decoding on the other P the ack's
// wake-up waited for sysmon, taking the commit p50 from ~60 µs to ~3.7 ms.)
func (w *writer) awaitAck(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for w.err == nil {
		if _, ok := w.poll(); !ok || w.acked == len(w.sent) {
			return
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			w.err = fmt.Errorf("%d edits not acked within %v", len(w.sent)-w.acked, timeout)
			return
		}
		if err := w.ss.c.PumpWait(rem); err != nil {
			w.err = err
		}
		w.checkAcks()
	}
}

// drain pumps until every own op is acked or the deadline passes.
func (w *writer) drain(deadline time.Time) {
	for w.acked < len(w.sent) && time.Now().Before(deadline) && w.err == nil {
		if err := w.ss.c.PumpWait(time.Until(deadline)); err != nil {
			w.err = err
		}
		w.checkAcks()
	}
}

// deliveryObserver watches a replica's data object and times each foreign
// op of the other writer when it is applied here. The k-th matching change
// is that writer's op k: A's edits are the only text inserts and deletes,
// B's the only table changes, and each applies as exactly one change.
type deliveryObserver struct {
	w     *writer
	sched schedule
	kinds map[string]bool
	n     int
	check func(k int, ch core.Change) error
}

func (o *deliveryObserver) ObservedChanged(_ core.DataObject, ch core.Change) {
	if !o.kinds[ch.Kind] {
		return
	}
	k := o.n
	o.n++
	o.w.deliver = append(o.w.deliver, durUs(time.Since(o.sched.due(k))))
	if o.check != nil {
		if err := o.check(k, ch); err != nil && o.w.err == nil {
			o.w.err = err
		}
	}
}

// runCollab is one round of the collab workload.
func runCollab(env *roundEnv) (*roundResult, error) {
	rng := rand.New(rand.NewSource(env.seed))
	reg, err := components.StandardRegistry()
	if err != nil {
		return nil, err
	}
	doc := text.NewString(docText(rng, collabLines, collabWidth))
	doc.SetRegistry(reg)
	if err := styleRuns(rng, doc, collabRuns); err != nil {
		return nil, err
	}
	if _, err := embedTable(rng, doc, reg, 20, collabTableDim, collabTableDim); err != nil {
		return nil, err
	}
	path, base, err := saveDoc(env.dir, doc)
	if err != nil {
		return nil, err
	}
	regA, err := components.NewRegistry()
	if err != nil {
		return nil, err
	}
	regB, err := components.NewRegistry()
	if err != nil {
		return nil, err
	}

	// Set-up: OpenHostFile -> both sessions live.
	t0 := time.Now()
	srv, err := startServer(path, base, env.meter)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	sa, err := srv.connect("a", regA)
	if err != nil {
		return nil, err
	}
	defer sa.c.Close()
	sb, err := srv.connect("b", regB)
	if err != nil {
		return nil, err
	}
	defer sb.c.Close()
	res := &roundResult{setup: time.Since(t0)}
	if env.setupOnly {
		return res, nil
	}
	if len(sb.c.Doc().Embeds()) != 1 {
		return nil, fmt.Errorf("collab: replica holds %d embeds, want 1", len(sb.c.Doc().Embeds()))
	}
	tblA, okA := sa.c.Doc().Embeds()[0].Obj.(*table.Data)
	tblB, okB := sb.c.Doc().Embeds()[0].Obj.(*table.Data)
	if !okA || !okB {
		return nil, fmt.Errorf("collab: embedded component is not a table")
	}
	wa := &writer{ss: sa, tr: env.tracer()}
	wb := &writer{ss: sb, tr: env.tracer()}

	ph := env.beginPhase(srv)
	start := time.Now()
	end := start.Add(env.phase)
	schedA := schedule{start: start, period: collabKeyEvery}
	schedB := schedule{start: start, period: collabCellEvery}

	// B's cell edits carry B's op counter as the cell value, so A checks
	// that the change it sees is the op it expects.
	obsA := &deliveryObserver{w: wa, sched: schedB, kinds: map[string]bool{"cell": true, "dims": true},
		check: func(k int, ch core.Change) error {
			if ch.Kind != "cell" {
				return nil
			}
			_, cols := tblA.Dims()
			if v, err := tblA.Value(ch.Pos/cols, ch.Pos%cols); err != nil || v != float64(k) {
				return fmt.Errorf("collab: A saw cell value %v for B's op %d", v, k)
			}
			return nil
		}}
	tblA.AddObserver(obsA)
	obsB := &deliveryObserver{w: wb, sched: schedA, kinds: map[string]bool{"insert": true, "delete": true}}
	sb.c.Doc().AddObserver(obsB)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d := sa.c.Doc()
		typ := newTypist(rand.New(rand.NewSource(env.seed+1)), d.LineStart(d.Len()/2))
		wa.late = openLoop(schedA, end, wa.pumpUntil, func(i int, due time.Time) {
			k := typ.next(d.Len(), d.LineStart)
			wa.sent = append(wa.sent, due)
			wa.edit(i+1, func() error { return k.apply(d) })
			wa.checkAcks()
		})
		wa.drain(end.Add(drainTimeout))
	}()
	go func() {
		defer wg.Done()
		brng := rand.New(rand.NewSource(env.seed + 2))
		wb.late = openLoop(schedB, end, wb.pumpUntil, func(i int, due time.Time) {
			wb.sent = append(wb.sent, due)
			wb.edit(i+1, func() error { return tableEdit(brng, tblB, i) })
			wb.checkAcks()
		})
		wb.drain(end.Add(drainTimeout))
	}()
	wg.Wait()
	env.endPhase(ph, res, len(wa.sent)+len(wb.sent))

	// Correctness: both replicas equal the host's encoding byte for byte,
	// and the journal replays to the same document.
	gate := collabGate(srv, wa, wb)
	if env.traced {
		l := env.layer
		l.pendingMax = max(l.pendingMax, wa.pendMax, wb.pendMax)
		l.pumps += wa.pumps + wb.pumps
		l.pumpTime += wa.pumpTime + wb.pumpTime
		l.connectMs = append(l.connectMs, msOf(sa.attach), msOf(sb.attach))
		l.attachBytes = append(l.attachBytes, float64(sa.attachB), float64(sb.attachB))
		env.netLayer(srv, []*session{sa, sb})
	}
	if gate == nil {
		gate = env.replayStages(srv.base, srv.path, hostSnapshot(srv), reg)
	}
	if err := srv.shutdown(sa, sb); err != nil && gate == nil {
		gate = err
	}

	res.op = append(wa.commit, wb.commit...)
	res.aux = append(wa.deliver, wb.deliver...)
	res.late = append(wa.late, wb.late...)
	res.done = wa.acked + wb.acked
	res.attempted = len(wa.sent) + len(wb.sent)
	// An op fails if it was never acked, or never reached the other replica.
	res.failed = (len(wa.sent) - wa.acked) + (len(wb.sent) - wb.acked)
	if miss := len(wa.sent) - obsB.n; miss > 0 {
		res.failed += miss
	}
	if miss := len(wb.sent) - obsA.n; miss > 0 {
		res.failed += miss
	}
	res.gate = gate
	if gate == nil {
		for _, w := range []*writer{wa, wb} {
			if w.err != nil {
				res.gate = w.err
			}
		}
	}
	return res, nil
}

// tableEdit is B's op i: mostly a cell set carrying i as its value, with
// an occasional row insert or delete that keeps the table near 16 rows.
func tableEdit(rng *rand.Rand, tbl *table.Data, i int) error {
	rows, cols := tbl.Dims()
	switch r := rng.Intn(100); {
	case r < 3 && rows > collabTableDim-4:
		return tbl.DeleteRows(rng.Intn(rows), 1)
	case r < 6 && rows < collabTableDim+4:
		return tbl.InsertRows(rng.Intn(rows+1), 1)
	default:
		return tbl.SetNumber(rng.Intn(rows), rng.Intn(cols), float64(i))
	}
}

// collabGate syncs both replicas to the host's last seq and compares
// encodings.
func collabGate(srv *served, ws ...*writer) error {
	for _, w := range ws {
		// Sessions self-heal like ez's; a heal on loopback means the
		// connection broke, which the round must not hide.
		if n := w.ss.c.Reconnects(); n > 0 {
			return fmt.Errorf("session reconnected %d times", n)
		}
		if err := w.ss.c.Sync(drainTimeout); err != nil {
			return fmt.Errorf("final sync: %w", err)
		}
	}
	snap, seq, err := srv.host.Snapshot()
	if err != nil {
		return err
	}
	for _, w := range ws {
		if err := w.ss.c.WaitSeq(seq, drainTimeout); err != nil {
			return fmt.Errorf("final catch-up: %w", err)
		}
		enc, err := persist.EncodeDocument(w.ss.c.Doc())
		if err != nil {
			return err
		}
		if !bytes.Equal(enc, snap) {
			return fmt.Errorf("replica encoding differs from the host's (%d vs %d bytes)", len(enc), len(snap))
		}
	}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
