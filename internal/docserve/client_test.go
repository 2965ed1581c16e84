package docserve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/persist"
	"atk/internal/text"
)

// scriptServer wraps the server end of a pipe for a hand-written server
// script: a frame reader and a frame writer.
func scriptServer(sEnd net.Conn) (*frameReader, *bufio.Writer) {
	return &frameReader{br: bufio.NewReader(sEnd)}, bufio.NewWriter(sEnd)
}

// writeSnap sends doc as the host does: a run of snapr range frames (here
// a run of one).
func writeSnap(bw *bufio.Writer, epoch, seq uint64, doc []byte) error {
	frames := buildSnapFrames(epoch, seq, doc, maxServeBytes)
	defer releaseFrames(frames)
	for _, fb := range frames {
		if _, err := bw.Write(fb.b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// frameClient attaches a client through Connect to "hello" at epoch 1,
// seq 0, behind a script server that then discards whatever the client
// sends. Tests hand frames straight to handleFrame on the owner goroutine;
// the background reader sees no frame until Close ends it.
func frameClient(reg *class.Registry) (*Client, error) {
	snap, err := persist.EncodeDocument(text.NewString("hello"))
	if err != nil {
		return nil, err
	}
	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		fr, bw := scriptServer(sEnd)
		if _, err := fr.next(); err != nil { // hello
			return
		}
		if writeSnap(bw, 1, 0, snap) != nil || writeFrame(bw, encodeLive(0)) != nil {
			return
		}
		_, _ = io.Copy(io.Discard, fr.br)
	}()
	return Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
}

// TestClientSnapRangeTotalIsAClaim: the total in a snapr header is the
// peer's word, not an allocation size. A total past what any slice can
// hold must not panic the client, and a large one reserves no more than
// one frame can deliver before the bytes arrive.
func TestClientSnapRangeTotalIsAClaim(t *testing.T) {
	for _, frame := range []string{
		"snapr 1 1 9000000000000000000 0 x",
		"snapr 1 1 134217728 0 x",
	} {
		c, err := frameClient(testReg(t))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.handleFrame(frame); err != nil || c.Err() != nil {
			t.Fatalf("%q: %v (latched %v)", frame, err, c.Err())
		}
		if n := cap(c.snapAcc.buf); n > MaxFrameBytes {
			t.Fatalf("%q reserved %d bytes up front", frame, n)
		}
		// The run is still checked: a range that does not continue it is
		// a protocol error.
		if err := c.handleFrame("snapr 1 1 5 2 yz"); err == nil || c.Err() == nil {
			t.Fatalf("%q: mismatched range accepted", frame)
		}
	}
}

// TestClientRebaseDeterministic drives a client against a hand-written
// server script so every transform step is pinned down exactly: the
// client's speculative insert at 0 loses the position tie to the
// server-earlier foreign insert and shifts right.
func TestClientRebaseDeterministic(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer sEnd.Close() // script done; pipe writes are synchronous, all frames delivered
		errc <- func() error {
			fr, bw := scriptServer(sEnd)
			f, err := fr.next()
			if err != nil {
				return err
			}
			hello, err := parseHello(f)
			if err != nil {
				return fmt.Errorf("hello %q: %w", f, err)
			}
			if hello.doc != "doc" || hello.clientID != "me" || hello.resume {
				return fmt.Errorf("unexpected hello %+v", hello)
			}
			if err := writeSnap(bw, 5, 0, snap); err != nil {
				return err
			}
			if err := writeFrame(bw, encodeLive(0)); err != nil {
				return err
			}
			f, err = fr.next()
			if err != nil {
				return err
			}
			g, err := parseOpGroup(f)
			if err != nil {
				return fmt.Errorf("op group %q: %w", f, err)
			}
			if g.clientSeq != 1 || g.baseSeq != 0 || len(g.payloads) != 1 || g.payloads[0] != "i 0 abc" {
				return fmt.Errorf("unexpected op group %+v", g)
			}
			// Serialize a foreign insert at the same position FIRST, then
			// commit the client's group after it.
			if err := writeFrame(bw, encodeCommitted(1, "other", 1, "i 0 ZZ")); err != nil {
				return err
			}
			if err := writeFrame(bw, encodeAck(1, 1, 2)); err != nil {
				return err
			}
			return nil
		}()
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Epoch() != 5 || !c.Live() {
		t.Fatalf("epoch %d live %v", c.Epoch(), c.Live())
	}
	mustInsert(t, c.Doc(), 0, "abc")
	if err := c.WaitSeq(2, 5*time.Second); err != nil {
		// The script's error explains most client-side failures (it closes
		// the pipe on its way out); don't let the symptom mask the cause.
		t.Fatalf("client: %v (script: %v)", err, <-errc)
	}
	if err := <-errc; err != nil {
		t.Fatalf("script: %v", err)
	}
	if got := c.Doc().String(); got != "ZZabchello" {
		t.Fatalf("visible doc %q, want %q", got, "ZZabchello")
	}
	if c.Confirmed() != 2 || c.PendingCount() != 0 {
		t.Fatalf("confirmed %d pending %d", c.Confirmed(), c.PendingCount())
	}
}

// TestClientAckMismatchIsFatal pins the strict ack check: a server that
// claims a different record count than the client's rebased group is a
// protocol violation, not something to paper over.
func TestClientAckMismatchIsFatal(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		fr, bw := scriptServer(sEnd)
		if _, err := fr.next(); err != nil {
			return
		}
		_ = writeSnap(bw, 1, 0, snap)
		_ = writeFrame(bw, encodeLive(0))
		if _, err := fr.next(); err != nil {
			return
		}
		_ = writeFrame(bw, encodeAck(1, 5, 9)) // nonsense
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustInsert(t, c.Doc(), 0, "x")
	err = c.WaitSeq(9, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "ack mismatch") {
		t.Fatalf("want ack mismatch error, got %v", err)
	}
	if c.Err() == nil {
		t.Fatal("fatal error not latched")
	}
}

// TestClientIgnoresDuplicateAckAfterEcho replays the resume race
// deterministically. The old session commits group 1 after the client
// resumed; the host fans the commit out to the new session, where the
// echo confirms group 1 and promotes group 2; then the host's dedup
// answers the re-sent group 1 with "ok 1 1 1". That ack repeats what the
// echo already confirmed, so it must not latch the client.
func TestClientIgnoresDuplicateAckAfterEcho(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	defer sEnd.Close() // open until the end: a hang-up would latch the client
	errc := make(chan error, 1)
	go func() {
		fr, bw := scriptServer(sEnd)
		errc <- func() error {
			if _, err := fr.next(); err != nil {
				return err
			}
			if err := writeSnap(bw, 1, 0, snap); err != nil {
				return err
			}
			if err := writeFrame(bw, encodeLive(0)); err != nil {
				return err
			}
			if _, err := fr.next(); err != nil { // group 1
				return err
			}
			if err := writeFrame(bw, encodeCommitted(1, "me", 1, "i 0 abc")); err != nil {
				return err
			}
			if err := writeFrame(bw, encodeAck(1, 1, 1)); err != nil {
				return err
			}
			f, err := fr.next()
			if err != nil {
				return err
			}
			g, err := parseOpGroup(f)
			if err != nil || g.clientSeq != 2 || g.baseSeq != 1 || len(g.payloads) != 1 || g.payloads[0] != "i 3 x" {
				return fmt.Errorf("group 2: %+v, %v", g, err)
			}
			return writeFrame(bw, encodeAck(2, 1, 2))
		}()
		for { // swallow the rest, the client's closing bye included
			if _, err := fr.next(); err != nil {
				return
			}
		}
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustInsert(t, c.Doc(), 0, "abc") // group 1, in flight
	mustInsert(t, c.Doc(), 3, "x")   // buffered behind it
	if err := c.WaitSeq(2, 5*time.Second); err != nil {
		t.Fatalf("client: %v (script: %v)", err, <-errc)
	}
	if err := <-errc; err != nil {
		t.Fatalf("script: %v", err)
	}
	if c.Err() != nil || c.PendingCount() != 0 || c.Doc().String() != "abcxhello" {
		t.Fatalf("err %v pending %d doc %q", c.Err(), c.PendingCount(), c.Doc().String())
	}
}

// TestClientStrayAckIsFatal: an ack for a group the client never
// confirmed is still a protocol error.
func TestClientStrayAckIsFatal(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		fr, bw := scriptServer(sEnd)
		if _, err := fr.next(); err != nil {
			return
		}
		_ = writeSnap(bw, 1, 0, snap)
		_ = writeFrame(bw, encodeLive(0))
		if _, err := fr.next(); err != nil {
			return
		}
		_ = writeFrame(bw, encodeAck(2, 1, 1)) // group 2 was never sent
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustInsert(t, c.Doc(), 0, "x")
	err = c.WaitSeq(1, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "stray ack") {
		t.Fatalf("want stray ack error, got %v", err)
	}
}

// TestClientSeqGapIsFatal: a committed op that skips a seq means lost
// state; the client must refuse rather than apply it at the wrong place.
func TestClientSeqGapIsFatal(t *testing.T) {
	reg := testReg(t)
	snap := encodeDoc(t, newDoc(t, "hello"))

	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		fr, bw := scriptServer(sEnd)
		if _, err := fr.next(); err != nil {
			return
		}
		_ = writeSnap(bw, 1, 0, snap)
		_ = writeFrame(bw, encodeLive(0))
		_ = writeFrame(bw, encodeCommitted(7, "other", 1, "i 0 ZZ"))
	}()

	c, err := Connect(cEnd, "doc", ClientOptions{ClientID: "me", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.WaitSeq(7, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("want sequence gap error, got %v", err)
	}
}

// TestConnectTimesOutOnMuteServer: a server that accepts the hello but
// never sends snap/live must fail Connect within the handshake deadline,
// not hang forever (the default options used to carry no deadline at all).
func TestConnectTimesOutOnMuteServer(t *testing.T) {
	reg := testReg(t)
	cEnd, sEnd := net.Pipe()
	defer sEnd.Close()
	go func() {
		fr, _ := scriptServer(sEnd)
		_, _ = fr.next() // swallow the hello, then go mute
	}()
	start := time.Now()
	_, err := Connect(cEnd, "doc", ClientOptions{
		ClientID: "me", Registry: reg, HandshakeTimeout: 100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("connect to a mute server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("connect took %v to fail; handshake deadline not applied", d)
	}
}

func TestConnectValidation(t *testing.T) {
	reg := testReg(t)
	mk := func() net.Conn { a, _ := net.Pipe(); return a }
	if _, err := Connect(mk(), "doc", ClientOptions{Registry: reg}); err == nil {
		t.Fatal("missing ClientID accepted")
	}
	if _, err := Connect(mk(), "doc", ClientOptions{ClientID: "bad id", Registry: reg}); err == nil {
		t.Fatal("invalid ClientID accepted")
	}
	if _, err := Connect(mk(), "bad doc", ClientOptions{ClientID: "c", Registry: reg}); err == nil {
		t.Fatal("invalid doc name accepted")
	}
	if _, err := Connect(mk(), "doc", ClientOptions{ClientID: "c"}); err == nil {
		t.Fatal("missing registry accepted")
	}
}

// TestClientUndoReplicates: undo is a local affair but its effect is an
// ordinary edit record, so it must travel like any other op.
func TestClientUndoReplicates(t *testing.T) {
	reg := testReg(t)
	h := NewHost("d", newDoc(t, "stable "), HostOptions{})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)
	a := pipeClient(t, srv, "d", "alice", reg)
	b := pipeClient(t, srv, "d", "bob", reg)

	mustInsert(t, a.Doc(), 7, "oops")
	if err := a.Sync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.Doc().Undo() {
		t.Fatal("nothing to undo")
	}
	convergeAll(t, h, a, b)
	if got := h.DocString(); got != "stable " {
		t.Fatalf("undo did not replicate: %q", got)
	}
}
