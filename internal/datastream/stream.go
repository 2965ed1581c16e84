package datastream

import (
	"errors"
	"fmt"
	"io"
)

// StreamReader is a seekable, lazily buffered view of an io.ReadSeeker —
// the "bed" idiom: the consumer reads and seeks as if the whole file were
// in memory, while the StreamReader keeps only one bounded window of it
// buffered and faults chunks in on demand. Seeking inside the buffered
// window is free; seeking outside it costs nothing until the next Read.
//
// This is the I/O half of open-without-loading: a Reader layered on a
// StreamReader can parse a component header at one offset, skip the
// payload by Seek (offsets come from the persist package's offset index),
// and resume parsing, without the skipped bytes ever being read from the
// file. StreamReader is not safe for concurrent use.
type StreamReader struct {
	src   io.ReadSeeker
	size  int64
	pos   int64  // logical read position
	win   []byte // buffered window
	off   int64  // file offset of win[0]
	chunk int
	err   error // latched I/O error from the source
}

// DefaultStreamChunk is the read-ahead window size: large enough that a
// sequential scan costs one syscall per 128 KiB, small enough that an
// open-without-loading session holding a few windows stays trivial.
const DefaultStreamChunk = 128 << 10

// NewStreamReaderSize wraps src with a window of chunk bytes (tests use
// tiny windows to force refills on every boundary; chunk <= 0 means
// DefaultStreamChunk). It determines the stream size with a pair of
// seeks and leaves the position at 0.
func NewStreamReaderSize(src io.ReadSeeker, chunk int) (*StreamReader, error) {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	size, err := src.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("datastream: sizing stream: %w", err)
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("datastream: rewinding stream: %w", err)
	}
	return &StreamReader{src: src, size: size, chunk: chunk}, nil
}

// Size returns the total length of the underlying stream in bytes.
func (s *StreamReader) Size() int64 { return s.size }

// Offset returns the current logical read position.
func (s *StreamReader) Offset() int64 { return s.pos }

// Read fills p from the buffered window, faulting the window forward when
// the position runs off its end. A read larger than the window bypasses
// the buffer entirely and lands in p directly.
func (s *StreamReader) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.pos >= s.size {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	// Window hit: serve what the window holds at pos.
	if s.pos >= s.off && s.pos < s.off+int64(len(s.win)) {
		n := copy(p, s.win[s.pos-s.off:])
		s.pos += int64(n)
		return n, nil
	}
	// Large read: skip the window, read straight into p.
	if len(p) >= s.chunk {
		n, err := s.readAt(p, s.pos)
		s.pos += int64(n)
		if err != nil {
			return n, err
		}
		return n, nil
	}
	// Refill the window at pos, then serve from it.
	want := s.chunk
	if rem := s.size - s.pos; int64(want) > rem {
		want = int(rem)
	}
	if cap(s.win) < want {
		s.win = make([]byte, want)
	}
	s.win = s.win[:want]
	n, err := s.readAt(s.win, s.pos)
	s.win = s.win[:n]
	s.off = s.pos
	if err != nil && n == 0 {
		return 0, err
	}
	m := copy(p, s.win)
	s.pos += int64(m)
	return m, nil
}

// readAt reads len(p) bytes at off from the source, tolerating a short
// final read at EOF. Errors latch: a source that failed once is not
// retried with a stale position.
func (s *StreamReader) readAt(p []byte, off int64) (int, error) {
	if _, err := s.src.Seek(off, io.SeekStart); err != nil {
		s.err = fmt.Errorf("datastream: stream seek: %w", err)
		return 0, s.err
	}
	n, err := io.ReadFull(s.src, p)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		// The source is shorter than Size claimed (it shrank under us) or
		// the final window is short; both are EOF to the consumer.
		if n > 0 {
			return n, nil
		}
		return 0, io.EOF
	}
	if err != nil {
		s.err = fmt.Errorf("datastream: stream read: %w", err)
		return n, s.err
	}
	return n, nil
}

// Seek repositions the stream. Seeking never touches the source: the cost
// of leaving the buffered window is deferred to the next Read, so header
// parse / skip-payload / resume sequences pay only for the bytes they
// actually read.
func (s *StreamReader) Seek(offset int64, whence int) (int64, error) {
	if s.err != nil {
		return 0, s.err
	}
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = s.pos + offset
	case io.SeekEnd:
		abs = s.size + offset
	default:
		return 0, errors.New("datastream: invalid seek whence")
	}
	if abs < 0 {
		return 0, errors.New("datastream: negative seek position")
	}
	s.pos = abs
	return abs, nil
}
