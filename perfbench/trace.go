package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Parent is the id of the span that caused it (0 for
// none); spans of one op share its Op id.
type span struct {
	ID, Parent int
	Op         int
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the traced run and writes them out when
// the benchmark ends. A nil *tracer records nothing: the untraced run pays
// one nil check per call site, and the untraced run installs no wrappers at
// all, so that is only the generators' own bookkeeping.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span id ahead of the span, so the calls it causes can
// name it as their parent before it ends.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	return int(t.next.Add(1))
}

// recordID appends the finished span id.
func (t *tracer) recordID(id int, name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// record appends a finished span under a fresh id.
func (t *tracer) record(name string, parent, op int, start, end time.Time) {
	t.recordID(t.newID(), name, parent, op, start, end)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	total time.Duration
	durs  []float64 // per-span durations, µs
}

func (s *layerStat) meanUs() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return durUs(s.total) / float64(s.count)
}

func (s *layerStat) p50Us() float64 {
	if s == nil {
		return 0
	}
	return median(s.durs)
}

// aggregate folds the spans into per-name statistics.
func (t *tracer) aggregate() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += d
		st.durs = append(st.durs, durUs(d))
	}
	return out
}

// maxSpansWritten bounds the span file; the aggregates use every span.
const maxSpansWritten = 200000

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
