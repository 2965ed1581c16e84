package docserve

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"atk/internal/ops"
	"atk/internal/persist"
)

// Connection self-healing. With ClientOptions.Dial set, a lost connection
// no longer latches the client dead: a supervisor goroutine redials with
// exponential backoff and full jitter while the owner goroutine keeps
// editing against the local replica, and the next Pump/PumpWait resumes
// the session over the fresh connection. The division of labor preserves
// the client's single-owner contract:
//
//	supervisor goroutine   dial + backoff sleeps only; talks to the owner
//	                       through the healc/healAck channel pair
//	owner goroutine        everything else — resume runs inside Pump, so
//	                       the replica, the buffers, and the views are
//	                       never touched concurrently
//
// While disconnected, local edits keep applying speculatively and — when
// OfflineFS/OfflinePath are set — queue durably in a per-session offline
// journal (the persist CRC-framed journal, fsync per append), so even a
// crash of the editor itself while offline loses nothing: the journal is
// replayed into the in-flight pipeline on the next Connect against the
// unchanged server state, or preserved as a .stale sidecar for hand
// recovery when the server has moved on.

// ConnState is the client connection-state machine:
//
//	Connected ──(loss)──> Reconnecting ──(3 failed attempts)──> Offline
//	     ^                     │                                  │
//	     └─────────────(resume ok, from either)───────────────────┘
//	Connected ──(protocol violation)──> Failed
//
// A loss is the closed inbox (a failed send closes the connection, so it
// is one too) or a server drain notice. Offline is still retrying — it is
// Reconnecting after enough consecutive failures to tell the user the
// outage is real. Failed is terminal: a protocol violation no redial can
// cure.
type ConnState int32

const (
	StateConnected ConnState = iota
	StateReconnecting
	StateOffline
	StateFailed
)

// offlineAfter is how many consecutive failed attempts demote
// Reconnecting to Offline.
const offlineAfter = 3

func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateReconnecting:
		return "reconnecting"
	case StateOffline:
		return "offline"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// State returns the connection state. Unlike the other accessors it is
// safe from any goroutine (the state is an atomic), so a UI can poll it.
func (c *Client) State() ConnState { return ConnState(c.state.Load()) }

// Reconnects returns how many times the client has successfully resumed
// over a fresh connection. Safe from any goroutine.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// setState publishes a state transition and fires the OnState callback
// (owner goroutine) when the value actually changed.
func (c *Client) setState(s ConnState, err error) {
	if ConnState(c.state.Swap(int32(s))) == s {
		return
	}
	if c.opts.OnState != nil {
		c.opts.OnState(s, err)
	}
}

// connLostError marks an error as a transport loss — eligible for
// self-healing, unlike a protocol violation. retryAfter carries the
// server's drain hint ("bye <reason> <retry-after-ms>").
type connLostError struct {
	cause      error
	retryAfter time.Duration
}

func (e *connLostError) Error() string { return e.cause.Error() }
func (e *connLostError) Unwrap() error { return e.cause }

// healEvent is one supervisor -> owner message: a fresh connection to
// resume over, or a failed dial.
type healEvent struct {
	conn    net.Conn // non-nil: dial succeeded, owner must resume and reply on healAck
	err     error    // dial failure
	attempt int      // dials performed so far this outage
}

// backoffDelay is the redial schedule: full jitter over an exponentially
// growing ceiling, rand(0, min(cap, base<<(attempt-1))). Pure function of
// (rng, base, cap, attempt) so the schedule is testable under a seed.
func backoffDelay(rng *rand.Rand, base, cap time.Duration, attempt int) time.Duration {
	if base <= 0 || attempt <= 0 {
		return 0
	}
	ceil := base
	for i := 1; i < attempt; i++ {
		ceil *= 2
		if ceil >= cap || ceil < 0 {
			ceil = cap
			break
		}
	}
	if cap > 0 && ceil > cap {
		ceil = cap
	}
	if ceil <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(ceil) + 1))
}

// lostConn is the owner-side entry point for a connection loss: start
// healing when a Dial is configured, latch dead otherwise.
func (c *Client) lostConn(cause error, retryAfter time.Duration) error {
	if c.closed || c.opts.Dial == nil {
		return c.fatal(cause)
	}
	return c.beginHeal(cause, retryAfter)
}

// beginHeal tears down the dead connection, opens the offline journal,
// and starts the dial supervisor. Owner goroutine.
func (c *Client) beginHeal(cause error, retryAfter time.Duration) error {
	if err := c.dropConn(); err != nil {
		return c.fatal(err)
	}
	c.openOffline()
	c.healing = true
	c.setState(StateReconnecting, cause)
	if c.healc == nil {
		c.healc = make(chan healEvent, 1)
		c.healAck = make(chan bool)
	}
	c.superStop = make(chan struct{})
	c.superDone = make(chan struct{})
	go c.runSupervisor(c.superStop, c.superDone, retryAfter)
	return nil
}

// dropConn closes the current connection — the dead one at the start of a
// heal, or a fresh one whose resume failed — and resets the session to
// not live, nothing latched, no snapshot half assembled. Frames the old
// reader delivered first are still applied.
func (c *Client) dropConn() error {
	c.stopHeartbeat()
	if c.conn != nil {
		_ = c.conn.Close()
	}
	err := c.drainDeadInbox()
	c.live = false
	c.lastErr = nil
	c.snapAcc = nil
	return err
}

// runSupervisor is the dial engine: sleep the backoff, dial, hand the
// result to the owner, repeat until a resume succeeds or stop closes. It
// touches nothing of the client but the rng (owner-created,
// supervisor-owned while running) and the channels.
func (c *Client) runSupervisor(stop, done chan struct{}, minFirst time.Duration) {
	defer close(done)
	attempt := 0
	delay := backoffDelay(c.rng, c.opts.BackoffBase, c.opts.BackoffCap, 1)
	if minFirst > delay {
		// The server's retry-after hint is a floor on the first redial: a
		// draining host told the whole fleet when to come back, and jitter
		// spreads the stampede above that line, not below it.
		delay = minFirst
	}
	for {
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
		}
		attempt++
		conn, err := c.opts.Dial()
		if err != nil {
			if !c.postHeal(stop, healEvent{err: err, attempt: attempt}) {
				return
			}
		} else {
			if !c.postHeal(stop, healEvent{conn: conn, attempt: attempt}) {
				_ = conn.Close()
				return
			}
			select {
			case ok := <-c.healAck:
				if ok {
					return
				}
				// The dial reached a server but the resume failed there (still
				// draining, still restarting): a failed attempt like any other.
			case <-stop:
				return
			}
		}
		delay = backoffDelay(c.rng, c.opts.BackoffBase, c.opts.BackoffCap, attempt+1)
	}
}

// postHeal delivers one event to the owner, abandoning ship if Close
// stops the supervisor first. Close drains healc afterwards, so a parked
// connection is never leaked.
func (c *Client) postHeal(stop chan struct{}, ev healEvent) bool {
	select {
	case c.healc <- ev:
		return true
	case <-stop:
		return false
	}
}

// pumpHeal drains pending supervisor events without blocking. Owner
// goroutine, called at the top of Pump/PumpWait.
func (c *Client) pumpHeal() {
	for c.healing {
		select {
		case ev := <-c.healc:
			c.handleHealEvent(ev)
		default:
			return
		}
	}
}

// handleHealEvent processes one supervisor event on the owner goroutine:
// resume over a fresh connection (replying the verdict on healAck), or
// count a failed dial toward Offline.
func (c *Client) handleHealEvent(ev healEvent) {
	if ev.conn == nil {
		c.degradeState(ev.attempt, ev.err)
		return
	}
	err := c.resume(ev.conn)
	if err != nil {
		// Healing continues: the failed attempt's connection and any latch
		// its catch-up left must not outlive it. The attempt started no
		// reader, so there is no inbox to drain and no error to report.
		_ = c.dropConn()
		c.degradeState(ev.attempt, err)
	}
	select {
	case c.healAck <- err == nil:
	case <-c.superDone:
	}
	if err == nil {
		c.endHeal()
	}
}

// resume reattaches over a fresh connection, presenting the epoch and
// confirmed seq so the host can replay just the missed ops. Unacknowledged
// local edits survive: the in-flight group is re-sent (the host answers
// idempotently if it had in fact committed it) and buffered edits promote
// as usual. Only a snapshot resync — the host's history window no longer
// reaching our resume point — discards them, counted in DroppedPending.
func (c *Client) resume(conn net.Conn) error {
	c.wmu.Lock()
	c.conn = conn
	c.bw = bufio.NewWriter(conn)
	c.wmu.Unlock()
	c.br = bufio.NewReader(conn)
	if err := c.sendRaw(encodeResumeHello(c.docName, c.opts.ClientID, c.epoch, c.confirmed)); err != nil {
		return err
	}
	if err := c.catchUp(); err != nil {
		return err
	}
	c.startReader()
	c.startHeartbeat()
	return nil
}

// degradeState demotes Reconnecting to Offline after offlineAfter
// consecutive failed attempts.
func (c *Client) degradeState(attempts int, cause error) {
	if attempts >= offlineAfter && c.State() == StateReconnecting {
		c.setState(StateOffline, cause)
	}
}

// endHeal completes a successful resume: back to Connected, count it,
// and drop the offline journal if nothing is pending anymore.
func (c *Client) endHeal() {
	c.healing = false
	c.reconnects.Add(1)
	c.setState(StateConnected, nil)
	c.maybeDiscardOffline()
}

// stopSupervisor halts an in-flight supervisor and reaps any event it
// parked (closing a parked connection rather than leaking it). Owner
// goroutine; used by Close.
func (c *Client) stopSupervisor() {
	if c.superStop == nil {
		return
	}
	close(c.superStop)
	c.superStop = nil
	<-c.superDone
	for {
		select {
		case ev := <-c.healc:
			if ev.conn != nil {
				_ = ev.conn.Close()
			}
		default:
			return
		}
	}
}

// drainDeadInbox applies whatever the old reader delivered before it
// noticed the loss: those frames are valid committed state and the resume
// point must account for them. Kick notices (err/bye) are why the
// connection died — skip them, and everything after a frame that fails.
// Blocks briefly until the reader closes the inbox (the connection is
// already closed, so that is prompt).
func (c *Client) drainDeadInbox() error {
	if c.inbox == nil {
		return nil
	}
	var err error
	c.draining = true
	for f := range c.inbox {
		if v := verbOf(f); err == nil && v != "err" && v != "bye" {
			err = c.handleFrame(f)
		}
	}
	c.draining = false
	c.inbox = nil
	return err
}

// --- offline edit durability -----------------------------------------

// openOffline starts the per-session offline journal, seeded with every
// edit already pending (in flight + buffered) at the moment of
// disconnect. Each later offline edit is appended with its own fsync
// (BatchEvery 1): the journal exists precisely so an editor crash while
// offline loses nothing. No-op unless OfflineFS and OfflinePath are set.
func (c *Client) openOffline() {
	if c.opts.OfflineFS == nil || c.opts.OfflinePath == "" || c.offline != nil {
		return
	}
	header := offlineHeader(c.docName, c.opts.ClientID, c.epoch, c.confirmed)
	var recs []string
	if c.inflight != nil {
		for _, r := range c.inflight.recs {
			recs = append(recs, ops.MustEncode(r))
		}
	}
	for _, r := range c.buffer {
		recs = append(recs, ops.MustEncode(r))
	}
	j, err := persist.CreateJournal(c.opts.OfflineFS, c.opts.OfflinePath, header, recs)
	if err != nil {
		c.offlineErr = err
		return
	}
	j.BatchEvery = 1
	c.offline = j
	c.offlineErr = nil
}

func offlineHeader(doc, clientID string, epoch, confirmed uint64) string {
	return fmt.Sprintf("offline %s %s %d %d", doc, clientID, epoch, confirmed)
}

// logOffline appends one just-applied local edit to the offline journal.
func (c *Client) logOffline(op ops.Op) {
	if c.offline == nil {
		return
	}
	if err := c.offline.Append(ops.MustEncode(op)); err != nil && c.offlineErr == nil {
		c.offlineErr = err
	}
}

// maybeDiscardOffline removes the offline journal once it has nothing
// left to protect: connected again and every pending edit confirmed.
func (c *Client) maybeDiscardOffline() {
	if c.offline == nil || c.healing || c.PendingCount() > 0 {
		return
	}
	_ = c.offline.Close()
	_ = c.opts.OfflineFS.Remove(c.opts.OfflinePath)
	c.offline = nil
}

// dropOffline sets the journal aside as path+suffix — the pending edits
// it holds did not survive (snapshot resync), or cannot be replayed
// automatically (stale recovery), but remain recoverable by hand.
func (c *Client) dropOffline(suffix string) {
	if c.offline != nil {
		_ = c.offline.Close()
		c.offline = nil
	}
	_ = c.opts.OfflineFS.Rename(c.opts.OfflinePath, c.opts.OfflinePath+suffix)
}

// FlushOffline forces the offline journal to stable storage and returns
// its path and how many edit records it holds. ("", 0, nil) when no
// offline journal is active. The ez exit path uses this to tell the user
// where their unconfirmed edits went when the server never came back.
func (c *Client) FlushOffline() (path string, n int, err error) {
	if c.offline == nil {
		return "", 0, c.offlineErr
	}
	err = c.offline.Sync()
	if err == nil {
		err = c.offlineErr
	}
	return c.opts.OfflinePath, int(c.offline.Seq()), err
}

// recoverOffline replays an offline journal a crashed predecessor session
// left behind — the editor died while disconnected, taking its buffered
// edits' memory copy with it. Replay is only safe against the exact
// server state the journal was written at (same epoch, same confirmed
// seq): the records are positional and there is no base to rebase an
// unknown gap from. A stale journal is set aside as .stale for hand
// recovery instead of being silently truncated by the next disconnect.
// Called by Connect after catch-up, before the background reader starts.
func (c *Client) recoverOffline() {
	if c.opts.OfflineFS == nil || c.opts.OfflinePath == "" {
		return
	}
	rep, err := persist.ReplayJournal(c.opts.OfflineFS, c.opts.OfflinePath)
	if err != nil {
		return // no journal (the common case) or unreadable: nothing to recover
	}
	if rep.Header != offlineHeader(c.docName, c.opts.ClientID, c.epoch, c.confirmed) {
		c.dropOffline(".stale")
		return
	}
	recs := make([]ops.Op, 0, len(rep.Records))
	for _, wire := range rep.Records {
		op, derr := ops.Decode(wire)
		if derr != nil {
			c.dropOffline(".stale")
			return
		}
		recs = append(recs, op)
	}
	// Re-apply to the visible replica (op application stays out of the edit
	// logger and the user's undo) and re-inject into the pipeline; a fresh
	// journal of the same edits keeps protecting them until they confirm.
	// An embed op replayed here recreates its component, which must be
	// wired like any other.
	for _, r := range recs {
		if aerr := c.applyForeign(r); aerr != nil {
			c.dropOffline(".stale")
			return
		}
	}
	c.buffer = append(c.buffer, recs...)
	c.openOffline()
	c.OfflineRecovered += len(recs)
	c.maybePromote()
}

// parseBye parses a server drain notice "bye <reason> <retry-after-ms>".
// A bare "bye" (the legacy kick) returns ok=false.
func parseBye(frame string) (reason string, retryAfter time.Duration, ok bool) {
	f := strings.Fields(frame)
	if len(f) != 3 || f[0] != "bye" {
		return "", 0, false
	}
	ms, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil || ms < 0 {
		return "", 0, false
	}
	return f[1], time.Duration(ms) * time.Millisecond, true
}

func encodeBye(reason string, retryAfter time.Duration) string {
	return fmt.Sprintf("bye %s %d", reason, retryAfter.Milliseconds())
}
