package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"atk/internal/class"
	"atk/internal/components"
	"atk/internal/core"
	"atk/internal/datastream"
	"atk/internal/docserve"
	"atk/internal/persist"
	"atk/internal/text"
)

// served is one in-process document server, built the way cmd/ezserve
// builds it: OpenHostFile on persist.OS, a demand-loading component
// registry, Serve on a loopback TCP listener, and a periodic SyncNow. In
// the traced pass the filesystem and the listener are the timing
// wrappers.
type served struct {
	path   string
	base   []byte // the saved document the journal is bound to
	host   *docserve.Host
	srv    *docserve.Server
	addr   string
	tl     *timedListener // nil when untraced
	m      *meter         // nil when untraced
	loadMs float64        // OpenHostFile, the persist load of the document

	serveErr chan error
	syncStop chan struct{}
	syncDone chan struct{}
	syncErrs int
	stopOnce sync.Once
	stopErr  error
}

// syncEvery is cmd/ezserve's default -sync interval.
const syncEvery = 2 * time.Second

// saveDoc saves doc as dir/doc.d (with its offset-index sidecar) and
// returns the path and the saved bytes. It is input preparation: no
// workload times it.
func saveDoc(dir string, doc *text.Data) (string, []byte, error) {
	path := filepath.Join(dir, "doc.d")
	base, err := persist.EncodeDocument(doc)
	if err != nil {
		return "", nil, err
	}
	return path, base, persist.SaveDocument(persist.OS, path, doc)
}

// fsFor is the filesystem a round's program code uses: persist.OS, under
// the timing wrapper in the traced pass.
func fsFor(m *meter) persist.FS {
	if m == nil {
		return persist.OS
	}
	return &timingFS{inner: persist.OS, m: m}
}

// startServer opens the saved document at path and serves it.
func startServer(path string, base []byte, m *meter) (*served, error) {
	s := &served{path: path, base: base, m: m}
	reg, err := components.NewRegistry()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if s.host, err = docserve.OpenHostFile(fsFor(m), s.path, reg, docserve.HostOptions{}); err != nil {
		return nil, err
	}
	s.loadMs = msOf(time.Since(t0))
	s.srv = docserve.NewServer(docserve.HostOptions{})
	s.srv.AddHost(s.host)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Close()
		return nil, err
	}
	s.addr = ln.Addr().String()
	if m != nil {
		s.tl = &timedListener{Listener: ln, m: m}
		ln = s.tl
	}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	s.syncStop, s.syncDone = make(chan struct{}), make(chan struct{})
	go s.syncLoop()
	return s, nil
}

func (s *served) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-t.C:
			if err := s.host.SyncNow(); err != nil {
				s.syncErrs++
			}
		}
	}
}

// stop closes the server (saving the document) and waits for its
// goroutines. Only the first call does the work; later ones return its
// error.
func (s *served) stop() error {
	s.stopOnce.Do(func() {
		close(s.syncStop)
		<-s.syncDone
		err := s.srv.Close()
		if serr := <-s.serveErr; !errors.Is(serr, net.ErrClosed) && err == nil {
			err = fmt.Errorf("serve: %w", serr)
		}
		if s.syncErrs > 0 && err == nil {
			err = fmt.Errorf("%d periodic syncs failed", s.syncErrs)
		}
		s.stopErr = err
	})
	return s.stopErr
}

// shutdown closes the sessions, then stops the server. A round folds its
// error into the correctness gate, so a failed close, serve, periodic
// sync or final save fails the round.
func (s *served) shutdown(sessions ...*session) error {
	var first error
	for _, ss := range sessions {
		if err := ss.c.Close(); err != nil && first == nil {
			first = fmt.Errorf("closing a session: %w", err)
		}
	}
	if err := s.stop(); err != nil && first == nil {
		first = err
	}
	return first
}

// session is one benchmark client: the replica plus, when traced, its
// timed connection.
type session struct {
	c         *docserve.Client
	tc        *timedConn // nil when untraced
	localAddr string
	attach    time.Duration
	attachB   int64 // bytes read until live (traced only)
}

// dial opens a client connection to the server, timed in the traced
// pass.
func (s *served) dial() (net.Conn, *timedConn, error) {
	conn, err := net.Dial("tcp", s.addr)
	if err != nil || s.m == nil {
		return conn, nil, err
	}
	tc := newTimedConn(conn, s.m, "net.cli_write")
	return tc, tc, nil
}

// connect dials the server and attaches as clientID with the options
// `ez -connect` uses: heartbeats, an idle timeout, self-healing redials
// and an offline edit journal, here beside the document.
func (s *served) connect(clientID string, reg *class.Registry) (*session, error) {
	t0 := time.Now()
	conn, tc, err := s.dial()
	if err != nil {
		return nil, err
	}
	ss := &session{localAddr: conn.LocalAddr().String(), tc: tc}
	ss.c, err = docserve.Connect(conn, s.path, docserve.ClientOptions{
		ClientID:       clientID,
		Registry:       reg,
		IdleTimeout:    60 * time.Second,
		HeartbeatEvery: 10 * time.Second,
		Dial: func() (net.Conn, error) {
			c, _, err := s.dial()
			return c, err
		},
		OfflineFS:   persist.OS,
		OfflinePath: filepath.Join(filepath.Dir(s.path), clientID+".offline"),
	})
	if err != nil {
		return nil, fmt.Errorf("connect %s: %w", clientID, err)
	}
	ss.attach = time.Since(t0)
	if ss.tc != nil {
		ss.attachB = ss.tc.rbytes.Load()
		s.m.tr.record("client.connect", 0, 0, t0, t0.Add(ss.attach))
	}
	return ss, nil
}

// decodeDoc parses a document encoding the way a client decodes a
// snapshot.
func decodeDoc(b []byte, reg *class.Registry) (*text.Data, error) {
	r := datastream.NewReaderOptions(bytes.NewReader(b), datastream.Options{Mode: datastream.Strict})
	obj, err := core.ReadObject(r, reg)
	if err != nil {
		return nil, err
	}
	doc, ok := obj.(*text.Data)
	if !ok {
		return nil, fmt.Errorf("document holds a %s, not text", obj.TypeName())
	}
	doc.SetRegistry(reg)
	return doc, nil
}

// hostDelta is the change in a host's counters over a measured phase.
type hostDelta struct {
	opsApplied, fanoutFrames, checkpoints, transformedAway uint64
	opResyncs, snapResyncs, kicks, snapChunks              uint64
}

func diffStats(a, b docserve.Stats) hostDelta {
	return hostDelta{
		opsApplied:      b.OpsApplied - a.OpsApplied,
		fanoutFrames:    b.FanoutFrames - a.FanoutFrames,
		checkpoints:     b.StyleCheckpoints - a.StyleCheckpoints,
		transformedAway: b.OpsTransformedAway - a.OpsTransformedAway,
		opResyncs:       b.OpResyncs - a.OpResyncs,
		snapResyncs:     b.SnapResyncs - a.SnapResyncs,
		kicks:           b.SlowConsumerKicks - a.SlowConsumerKicks,
		snapChunks:      b.SnapChunks - a.SnapChunks,
	}
}

// queueSampler polls the host's deepest outbound queue during a traced
// phase (Stats takes the host lock, so the untraced pass never does this).
type queueSampler struct {
	stop, done chan struct{}
	max        int
}

func startQueueSampler(h *docserve.Host) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				if d := h.Stats().QueueDepthMax; d > q.max {
					q.max = d
				}
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() int {
	close(q.stop)
	<-q.done
	return q.max
}
