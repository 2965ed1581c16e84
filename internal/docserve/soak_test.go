package docserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"atk/internal/class"
	"atk/internal/text"
)

const (
	soakClients = 9
	soakOpsEach = 30
)

// TestSoakConcurrentSessions is the subsystem's acceptance test: many
// concurrent sessions hammering one document with random inserts, deletes,
// and style changes — two of them repeatedly dropping their connection
// mid-stream, editing offline, and resuming — and at quiescence every
// replica's external representation is byte-identical to the host's.
// Run it under -race (make verify does) to sweep the locking too.
func TestSoakConcurrentSessions(t *testing.T) {
	// QueueLen must cover the worst-case burst: in-process pipes have zero
	// latency, so all ~9*30 commits plus style checkpoints can land while a
	// session's writer goroutine is starved; the default 256 intermittently
	// kicked healthy clients as "slow". Eviction itself is covered by
	// TestServeSlowConsumerKicked.
	h := NewHost("soak", newDoc(t, "The quick brown fox jumps over the lazy dog\n"), HostOptions{QueueLen: 4096})
	srv := NewServer(HostOptions{})
	srv.AddHost(h)

	seed := testSeed(t, 1000)
	clients := make([]*Client, soakClients)
	errs := make([]error, soakClients)
	var wg sync.WaitGroup
	for i := 0; i < soakClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = soakClient(srv, seed+int64(i), i, &clients[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	})

	// Every client has synced its own edits, so no further commits can
	// happen: the host's seq is final.
	hostBytes, finalSeq, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if err := c.WaitSeq(finalSeq, 10*time.Second); err != nil {
			t.Fatalf("client %d catching up to seq %d: %v", i, finalSeq, err)
		}
		got := encodeDoc(t, c.Doc())
		if !bytes.Equal(got, hostBytes) {
			t.Fatalf("client %d diverged at seq %d:\n--- host ---\n%s\n--- client %d ---\n%s",
				i, finalSeq, hostBytes, i, got)
		}
	}
	st := h.Stats()
	if st.Sessions != soakClients {
		t.Fatalf("want %d live sessions at the end, have %+v", soakClients, st)
	}
	if st.OpResyncs+st.SnapResyncs < soakClients+2 {
		t.Fatalf("reconnects did not resync: %+v", st)
	}
	t.Logf("soak: %+v", st)
}

// soakClient runs one client's life on its own goroutine: random edits
// with frequent pumping, and for the first two clients, mid-stream
// disconnect/reconnect cycles with offline edits in between. The client is
// left connected and fully synced in *slot for the main goroutine's
// convergence check (the WaitGroup hands ownership back). seed comes from
// testSeed so a failure names the replayable base seed.
func soakClient(srv *Server, seed int64, i int, slot **Client) error {
	reg := class.NewRegistry()
	if err := text.Register(reg); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	opts := ClientOptions{ClientID: fmt.Sprintf("soaker-%d", i), Registry: reg}
	if i < 2 {
		// The dropping clients heal through the supervisor like ez does.
		opts.Dial = func() (net.Conn, error) {
			nc, ns := net.Pipe()
			go srv.HandleConn(ns)
			return nc, nil
		}
		opts.BackoffBase, opts.BackoffCap, opts.BackoffSeed = time.Millisecond, 5*time.Millisecond, seed
	}
	cEnd, sEnd := net.Pipe()
	go srv.HandleConn(sEnd)
	c, err := Connect(cEnd, "soak", opts)
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	*slot = c

	var drops uint64 // planned connection drops so far
	for op := 0; op < soakOpsEach; op++ {
		if err := randomEdit(c, rng); err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
		if err := c.Pump(); err != nil {
			return fmt.Errorf("pump after op %d: %w", op, err)
		}
		// Occasionally yield so remote ops interleave with local ones.
		if rng.Intn(4) == 0 {
			_ = c.PumpWait(time.Millisecond)
		}

		// The first two clients drop their connection mid-stream, twice,
		// keep editing offline, and heal.
		if i < 2 && (op == soakOpsEach/3 || op == 2*soakOpsEach/3) {
			_ = c.conn.Close()
			drops++
			for k := 0; k < 3; k++ {
				if err := randomEdit(c, rng); err != nil {
					return fmt.Errorf("offline op %d: %w", k, err)
				}
			}
			if err := awaitReconnect(c, drops); err != nil {
				return fmt.Errorf("resume at op %d: %w", op, err)
			}
		}
	}
	if err := c.Sync(10 * time.Second); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	// A heal beyond the planned drops means the host cut the session
	// (say, as a slow consumer), which the soak must not hide.
	if n := c.Reconnects(); n != drops {
		return fmt.Errorf("%d reconnects, want the %d planned", n, drops)
	}
	return nil
}

// randomEdit applies one random local mutation to c's visible document.
// Positions are computed from the replica's own current length, so the
// edit is always locally valid no matter what remote ops arrived.
func randomEdit(c *Client, rng *rand.Rand) error {
	d := c.Doc()
	n := d.Len()
	switch {
	case n == 0 || rng.Intn(3) == 0: // insert
		words := []string{"ab", "X", "ω€", "line\n", "q"}
		return d.Insert(rng.Intn(n+1), words[rng.Intn(len(words))])
	case rng.Intn(2) == 0: // delete
		pos := rng.Intn(n)
		k := 1 + rng.Intn(minInt(3, n-pos))
		return d.Delete(pos, k)
	default: // style
		start := rng.Intn(n)
		end := start + 1 + rng.Intn(minInt(4, n-start))
		styles := []string{"bold", "italic", "bigger"}
		return d.SetStyle(start, end, styles[rng.Intn(len(styles))])
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
