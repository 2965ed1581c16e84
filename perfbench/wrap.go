package main

import (
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atk/internal/persist"
)

// meter is the switch the pass-through wrappers share: they count and
// trace only while a measured phase is on, so set-up I/O (saving the
// document, the first snapshots) stays out of the per-op figures.
type meter struct {
	tr *tracer
	on atomic.Bool
	fs fsStats // journal I/O of every timing FS of the pass
}

// --- persist.FS ---------------------------------------------------------

// fsStats counts journal I/O; the journal is the file every commit writes.
type fsStats struct {
	writes, bytes, syncs atomic.Int64
}

// timingFS passes every call through to inner unchanged and times the
// journal's appends (one write each) and fsyncs.
type timingFS struct {
	inner persist.FS
	m     *meter
}

func (f *timingFS) wrap(name string, h persist.File) persist.File {
	tf := &timedFile{File: h, fs: f, journal: strings.HasSuffix(name, ".journal")}
	if s, ok := h.(io.Seeker); ok {
		return &timedSeekFile{timedFile: tf, s: s}
	}
	return tf
}

func (f *timingFS) Create(name string) (persist.File, error) {
	h, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, h), nil
}

func (f *timingFS) Open(name string) (persist.File, error) {
	h, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, h), nil
}

func (f *timingFS) OpenAppend(name string) (persist.File, error) {
	h, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(name, h), nil
}

func (f *timingFS) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }
func (f *timingFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *timingFS) Stat(name string) (int64, error)      { return f.inner.Stat(name) }
func (f *timingFS) SyncDir(dir string) error             { return f.inner.SyncDir(dir) }

type timedFile struct {
	persist.File
	fs      *timingFS
	journal bool
}

func (h *timedFile) counting() bool { return h.journal && h.fs.m.on.Load() }

func (h *timedFile) Write(p []byte) (int, error) {
	if !h.counting() {
		return h.File.Write(p)
	}
	t0 := time.Now()
	n, err := h.File.Write(p)
	h.fs.m.tr.record("persist.append", 0, 0, t0, time.Now())
	h.fs.m.fs.writes.Add(1)
	h.fs.m.fs.bytes.Add(int64(n))
	return n, err
}

func (h *timedFile) Sync() error {
	if !h.counting() {
		return h.File.Sync()
	}
	t0 := time.Now()
	err := h.File.Sync()
	h.fs.m.tr.record("persist.fsync", 0, 0, t0, time.Now())
	h.fs.m.fs.syncs.Add(1)
	return err
}

// timedSeekFile keeps a seekable file seekable through the wrapper, so the
// layers above take the same path they take on the bare file.
type timedSeekFile struct {
	*timedFile
	s io.Seeker
}

func (h *timedSeekFile) Seek(offset int64, whence int) (int64, error) {
	return h.s.Seek(offset, whence)
}

// --- net.Conn -----------------------------------------------------------

// timedConn passes bytes and errors through unchanged. It always counts
// bytes read (an attach's snapshot size is read off it), and while the
// meter is on it also counts and times writes.
type timedConn struct {
	net.Conn
	m      *meter
	name   string // span name of a write: "net.srv_write" or "net.cli_write"
	parent atomic.Int64

	writes, wbytes, rbytes atomic.Int64
	wtime                  atomic.Int64 // ns spent in counted writes
}

func newTimedConn(c net.Conn, m *meter, name string) *timedConn {
	return &timedConn{Conn: c, m: m, name: name}
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rbytes.Add(int64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	if !c.m.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.m.tr.record(c.name, int(c.parent.Load()), 0, t0, t1)
	c.wtime.Add(int64(t1.Sub(t0)))
	c.writes.Add(1)
	c.wbytes.Add(int64(n))
	return n, err
}

// timedListener hands the server timed connections and remembers them, so
// the server side's writes can be split by which client they went to.
type timedListener struct {
	net.Listener
	m *meter

	mu    sync.Mutex
	conns []*timedConn
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := newTimedConn(c, l.m, "net.srv_write")
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// serverConns returns the accepted connections whose peer is one of addrs
// (the benchmark's long-lived sessions, not its short attaches).
func (l *timedListener) serverConns(addrs map[string]bool) []*timedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*timedConn
	for _, c := range l.conns {
		if addrs[c.RemoteAddr().String()] {
			out = append(out, c)
		}
	}
	return out
}
