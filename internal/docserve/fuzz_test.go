package docserve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/datastream"
	"atk/internal/persist"
	"atk/internal/text"
)

var (
	fuzzRegOnce sync.Once
	fuzzReg     *class.Registry
)

func fuzzRegistry() *class.Registry {
	fuzzRegOnce.Do(func() {
		fuzzReg = class.NewRegistry()
		if err := text.Register(fuzzReg); err != nil {
			panic(err)
		}
	})
	return fuzzReg
}

// frames renders a frame sequence to raw wire bytes for the seed corpus.
func frames(lines ...string) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, l := range lines {
		_ = writeFrame(w, l)
	}
	return buf.Bytes()
}

// FuzzServerProtocol throws arbitrary bytes at a live file-backed host.
// Whatever arrives, the server must not panic, must not wedge, and must
// keep its core invariant: the document reopened from disk (base plus
// journal replay) is exactly the document the host is serving.
func FuzzServerProtocol(f *testing.F) {
	f.Add(frames(encodeHello("doc.d", "fz")))
	f.Add(frames(encodeHello("doc.d", "fz"), encodeOpGroup(1, 0, []string{"i 0 hi"})))
	f.Add(frames(encodeHello("doc.d", "fz"), encodeOpGroup(1, 0, []string{"i 0 a", "d 0 1", "s 0 2 bold"})))
	f.Add(frames(encodeHello("doc.d", "fz"), "op 1 0 1 9999:i 0 x"))
	f.Add(frames("hello atkdoc1 doc.d "+strings.Repeat("z", 300), "ping tok"))
	f.Add([]byte("hello atkdoc1 doc.d fz\nop \\u41; \\q broken\n"))
	f.Add([]byte(strings.Repeat("A", 70000) + "\n"))
	f.Add([]byte("\\"))
	f.Add(frames(encodeHello("doc.d", "fz"), "ping "+strings.Repeat("p", 500), "bye"))

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := fuzzRegistry()
		mem := persist.NewMemFS()
		base := text.New()
		_ = base.Insert(0, "seed text\n")
		if err := persist.SaveDocument(mem, "doc.d", base); err != nil {
			t.Fatal(err)
		}
		h, err := OpenHostFile(mem, "doc.d", reg, HostOptions{
			IdleTimeout:  2 * time.Second,
			WriteTimeout: time.Second,
			QueueLen:     32,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(HostOptions{IdleTimeout: 2 * time.Second, WriteTimeout: time.Second})
		srv.AddHost(h)

		cEnd, sEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.HandleConn(sEnd)
		}()
		go func() { _, _ = io.Copy(io.Discard, cEnd) }() // drain server output

		_ = cEnd.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = cEnd.Write(data)
		_ = cEnd.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("session wedged on hostile input")
		}

		// The journal must replay to exactly the state the host reached.
		want := h.DocString()
		if err := h.SyncNow(); err != nil {
			t.Fatalf("sync after hostile input: %v", err)
		}
		mem.Crash()
		df, err := persist.Load(mem, "doc.d", reg, datastream.Strict)
		if err != nil {
			t.Fatalf("reopen after hostile input: %v", err)
		}
		got := df.Doc.String()
		_ = df.Close()
		if got != want {
			t.Fatalf("journal replay diverged from served state:\nserved: %q\nreplayed: %q", want, got)
		}
	})
}

// FuzzClientFrames feeds arbitrary frame sequences to an attached client
// with one edit group in flight. Whatever the server says, the client must
// not panic; a frame it accepts leaves nothing latched; and a frame it
// refuses is either latched in Err() or a drain notice, the one refusal
// that starts a heal.
func FuzzClientFrames(f *testing.F) {
	snap, err := persist.EncodeDocument(text.NewString("fresh"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seq := range [][]string{
		{"ok 1 1 1"},
		{encodeCommitted(1, "me", 1, "i 0 abc")},
		{encodeCommitted(1, "other", 1, "i 0 ZZ"), "ok 1 1 2"},
		{encodeCommitted(1, "other", 1, "s 0 3 bold"), encodeCommitted(2, "other", 1, "d 0 2")},
		{fmt.Sprintf("snapr 1 4 %d 0 %s", len(snap), snap), "live 4"},
		{fmt.Sprintf("snapr 1 4 %d 0 %s", len(snap), snap[:7]), fmt.Sprintf("snapr 1 4 %d 7 %s", len(snap), snap[7:])},
		{"snapr 1 1 9000000000000000000 0 x"},
		{"live 0"},
		{"pong hb1"},
		{"bye draining 10"},
		{"bye"},
		{"err too slow"},
		{"nope"},
	} {
		f.Add(frames(seq...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := frameClient(fuzzRegistry())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Doc().Insert(0, "abc"); err != nil {
			t.Fatal(err)
		}
		fr := frameReader{br: bufio.NewReader(bytes.NewReader(data))}
		for {
			frame, ferr := fr.next()
			if ferr != nil {
				return
			}
			err := c.handleFrame(frame)
			var lost *connLostError
			switch {
			case err == nil && c.Err() != nil:
				t.Fatalf("%q accepted but latched %v", frame, c.Err())
			case errors.As(err, &lost) && c.Err() != nil:
				t.Fatalf("%q: drain notice also latched %v", frame, c.Err())
			case err != nil && lost == nil && !errors.Is(err, c.Err()):
				t.Fatalf("%q refused with %v but latched %v", frame, err, c.Err())
			}
			if err != nil {
				return
			}
		}
	})
}
