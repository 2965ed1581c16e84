package docserve

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"time"

	"atk/internal/persist"
)

// Graceful drain. A SIGTERM'd host does not just vanish: it stops
// accepting, tells every session it is leaving and when to come back
// ("bye <reason> <retry-after-ms>" on the control headroom), lets the
// outbound queues flush, saves the document, and writes a one-shot
// host-state sidecar (epoch, seq, per-client dedup state, all bound to
// the saved bytes by CRC). A host restarted on the same file adopts the
// sidecar, so self-healing clients resume into the same epoch at the
// same seq — the cheap op-replay path, in-flight groups answered
// idempotently — instead of a snapshot resync that would drop their
// unconfirmed work.

// drainPoll is how often Drain re-checks the outbound queues while
// waiting for them to flush.
const drainPoll = 2 * time.Millisecond

// Drain performs a graceful shutdown of one host: broadcast the bye,
// flush session queues (bounded by ctx), disconnect, save, and write the
// host-state sidecar. The host is closed afterwards; Close remains safe
// to call and does nothing more.
func (h *Host) Drain(ctx context.Context) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	if !h.draining {
		h.draining = true
		fb := getFrame()
		fb.appendLine(encodeBye("draining", h.opts.DrainRetryAfter))
		now := time.Now()
		for s := range h.sessions {
			_ = h.enqueueControlLocked(s, fb, now)
		}
		fb.release()
	}
	h.mu.Unlock()

	// Let the queues flush: every session either writes its backlog (the
	// bye last) or dies trying, and a session the client hangs up on drops
	// out of the registry. Bounded by ctx — a wedged peer must not hold
	// the whole shutdown hostage.
	for {
		h.mu.Lock()
		pending := false
		for s := range h.sessions {
			if len(s.out) > 0 {
				pending = true
				break
			}
		}
		h.mu.Unlock()
		if !pending {
			break
		}
		exp := false
		select {
		case <-ctx.Done():
			exp = true
		case <-time.After(drainPoll):
		}
		if exp {
			break
		}
	}

	h.mu.Lock()
	for s := range h.sessions {
		h.killLocked(s, "server draining", false)
	}
	h.closed = true
	releaseFrames(h.snapFrames)
	h.snapFrames = nil
	df := h.df
	h.df = nil
	// Encode the sidecar under the lock: the CRC must describe exactly the
	// document df.Save is about to write, with the epoch/seq/client state
	// of the same instant.
	var state []byte
	if df != nil && h.fsys != nil {
		if enc, err := persist.EncodeDocument(h.doc); err == nil {
			state = h.encodeHostStateLocked(crc32.ChecksumIEEE(enc))
		}
	}
	h.mu.Unlock()
	if df == nil {
		return nil
	}
	if err := df.Save(); err != nil {
		_ = df.Close()
		return err
	}
	var first error
	if state != nil {
		first = persist.AtomicWrite(h.fsys, HostStatePath(h.name), func(w io.Writer) error {
			_, werr := w.Write(state)
			return werr
		})
	}
	if err := df.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// HostStatePath is where a drained host parks its resume state beside
// the document file.
func HostStatePath(path string) string { return path + ".host" }

// hostState is the decoded sidecar: a framed-record file
// (persist.HostStateMagic) of typed records, each with its own CRC —
//
//	crc <hex CRC of the saved document's encoding>
//	epoch <n>
//	seq <n>
//	client <id> <seeded 0|1> <lastSeq> [<clientSeq>:<n>:<hi> ...]
//
// — one client record per known client.
type hostState struct {
	crc     uint32
	epoch   uint64
	seq     uint64
	clients map[string]*clientState
}

// encodeHostStateLocked renders the sidecar bytes. Host lock held.
func (h *Host) encodeHostStateLocked(crc uint32) []byte {
	recs := []string{fmt.Sprintf("crc %08x", crc), fmt.Sprintf("epoch %d", h.epoch), fmt.Sprintf("seq %d", h.seq)}
	for id, cs := range h.clients {
		seeded := 0
		if cs.seeded {
			seeded = 1
		}
		var b strings.Builder
		fmt.Fprintf(&b, "client %s %d %d", id, seeded, cs.lastSeq)
		for k, r := range cs.acks {
			fmt.Fprintf(&b, " %d:%d:%d", k, r.n, r.hi)
		}
		recs = append(recs, b.String())
	}
	return persist.EncodeRecords(persist.HostStateMagic, recs)
}

// decodeHostState parses sidecar bytes; any damage or malformation fails
// the whole decode (a half-adopted dedup state would be worse than none).
func decodeHostState(b []byte) (*hostState, error) {
	recs, err := persist.ReadRecords(b, persist.HostStateMagic)
	if err != nil {
		return nil, err
	}
	st := &hostState{clients: map[string]*clientState{}}
	if len(recs) < 3 || !persist.ScanRecord(recs[0], "crc %08x", &st.crc) ||
		!persist.ScanRecord(recs[1], "epoch %d", &st.epoch) || !persist.ScanRecord(recs[2], "seq %d", &st.seq) {
		return nil, fmt.Errorf("docserve: host-state header records")
	}
	for _, rec := range recs[3:] {
		// Single spaces only: an empty field (doubled, leading or trailing
		// space) fails its ScanRecord, as does a tab inside a field.
		f := strings.Split(rec, " ")
		var id string
		seeded := 0
		cs := &clientState{acks: map[uint64]ackRange{}}
		if len(f) < 4 || !persist.ScanRecord(strings.Join(f[:4], " "), "client %s %d %d", &id, &seeded, &cs.lastSeq) ||
			!nameOK(id) || seeded < 0 || seeded > 1 {
			return nil, fmt.Errorf("docserve: host-state client record %q", rec)
		}
		cs.seeded = seeded == 1
		for _, a := range f[4:] {
			var k, hi uint64
			var n int
			if !persist.ScanRecord(a, "%d:%d:%d", &k, &n, &hi) || n < 0 {
				return nil, fmt.Errorf("docserve: host-state ack %q", a)
			}
			cs.acks[k] = ackRange{n: n, hi: hi}
		}
		st.clients[id] = cs
	}
	return st, nil
}

// adoptState resumes a drained predecessor's identity, called by
// OpenHostFile before any session exists. The sidecar is one-shot
// (removed on sight): it describes exactly one saved document state, and
// adopting it against any other — a crash after new commits, a journal
// replay, a hand-edited file — would break the dedup invariants, so the
// CRC of the canonical encoding is the admission test and any mismatch
// means a fresh epoch (clients snapshot-resync, which is correct, just
// costlier).
func (h *Host) adoptState(fsys persist.FS, path string) {
	sp := HostStatePath(path)
	b, err := persist.ReadFile(fsys, sp)
	if err != nil {
		return
	}
	_ = fsys.Remove(sp)
	if h.df == nil || h.df.Replayed != 0 {
		return // committed ops landed after the drain's save; state is stale
	}
	st, err := decodeHostState(b)
	if err != nil {
		return
	}
	enc, err := persist.EncodeDocument(h.doc)
	if err != nil || crc32.ChecksumIEEE(enc) != st.crc {
		return
	}
	h.epoch, h.seq = st.epoch, st.seq
	now := time.Now()
	for id, cs := range st.clients {
		cs.sessions = 0
		cs.idleSince = now
		h.clients[id] = cs
	}
}

// Shutdown drains the server gracefully: stop accepting, drain every
// host (bye broadcast, queue flush, save, host-state sidecar), and wait
// for the connection handlers, all bounded by ctx. The first error is
// returned; the shutdown itself proceeds regardless.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.lns
	s.lns = nil
	hosts := make([]*Host, 0, len(s.hosts))
	for _, h := range s.hosts {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	var first error
	for _, h := range hosts {
		if err := h.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if first == nil {
			first = ctx.Err()
		}
	}
	return first
}
