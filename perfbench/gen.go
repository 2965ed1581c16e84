package main

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"atk/internal/class"
	"atk/internal/table"
	"atk/internal/text"
)

// schedule is an open-loop arrival schedule: op i is due at start+i*period
// whether or not earlier ops have finished, so a stall delays the ops due
// during it and their latency, timed from the due time, shows the wait
// (no coordinated omission).
type schedule struct {
	start  time.Time
	period time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.period) }

// openLoop issues op 0, 1, ... at their due times until the next one would
// be due at or after end. wait(until) idles until the given instant (a
// client pumps its replica there); send(i, due) performs op i. It returns
// how late each op started relative to its due time.
func openLoop(s schedule, end time.Time, wait func(until time.Time), send func(i int, due time.Time)) []float64 {
	var late []float64
	for i := 0; ; i++ {
		due := s.due(i)
		if !due.Before(end) {
			return late
		}
		if now := time.Now(); now.Before(due) {
			wait(due)
		}
		late = append(late, durUs(time.Since(due)))
		send(i, due)
	}
}

// spinWindow is how long before an op is due a generator stops waiting
// on a timer and polls instead. When every goroutine is blocked, the Go
// runtime waits in epoll with a millisecond timeout, so a timer fires up
// to a millisecond late, and an open-loop generator that late would add it
// to every op it times from its due time. (Waking the runtime with a
// kernel timerfd instead cut the lateness to ~55 µs, but with the vCPUs
// idle between ops the collab p50 rose ~20%; a timerfd wake 150 µs early
// followed by a short poll drew more hypervisor steal, 3-7% against 1-2%
// in alternating runs, and a worse p90.)
const spinWindow = time.Millisecond

// spinCPU totals the CPU time generators spent polling with nothing to
// do, so the process's CPU cost per op can leave it out. It is CPU time,
// not wall time: while a spinner yields, the program's goroutines run in
// its place, and their CPU is the program's cost. A poll that made
// progress (applied a frame) is the program's work and is not counted.
var spinCPU atomic.Int64

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// spinSlice is how long a spinner polls between yields. Its CPU is
// measured per slice, on its own thread's clock; what a yield costs
// elsewhere is not: with a P idle, runtime.Gosched wakes another OS thread
// to look for work. On a 2-vCPU Xeon VM an idle spin that yielded after
// every poll cost the process ~1.0 ms of CPU per ms of spin, of which its
// thread clock saw 0.45; with 50 µs slices the process pays ~1.05 ms per
// ms and the clock sees 0.94, so ~0.1 ms of runtime work per ms of spin
// still counts as the program's, a near-constant addition to
// cpu_us_per_op. Longer slices would shrink it, but a goroutine readied
// while both Ps are busy, one of them spinning, waits up to a slice.
const spinSlice = 50 * time.Microsecond

// poller is one poll of a spinning generator: progress says it did the
// program's work, and ok false stops the spin.
type poller func() (progress, ok bool)

// spinUntil polls until t, calling poll (if any) throughout and yielding
// every spinSlice. During a slice the spinner is pinned to its OS thread,
// so that thread's CPU clock counts only the spinner's own work, even if a
// poll blocks.
func spinUntil(t time.Time, poll poller) {
	for {
		runtime.LockOSThread()
		c0 := threadCPU()
		var work time.Duration
		done := false
		for slice := time.Now().Add(spinSlice); ; {
			now := time.Now()
			if done = !now.Before(t); done || !now.Before(slice) {
				break
			}
			if poll != nil {
				p0 := threadCPU()
				progress, ok := poll()
				if progress {
					work += threadCPU() - p0
				}
				if done = !ok; done {
					break
				}
			}
		}
		spinCPU.Add(int64(threadCPU() - c0 - work))
		runtime.UnlockOSThread()
		if done {
			return
		}
		runtime.Gosched()
	}
}

// sleepUntil is the wait of a generator that has nothing to pump.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	spinUntil(t, nil)
}

var words = strings.Fields(`the andrew toolkit provides a set of components
for building user interfaces each component is a data object with one or
more views views are arranged in a tree and the interaction manager routes
events down that tree while data objects notify their observers of changes
through the delayed update mechanism so that every view repaints only the
damage that an edit caused documents embed tables drawings equations and
other components inside text`)

// docLine returns one seeded line of prose of roughly n characters,
// without its newline.
func docLine(rng *rand.Rand, n int) string {
	var b strings.Builder
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[rng.Intn(len(words))])
	}
	return b.String()
}

// docText returns lines of seeded prose of about width characters each.
func docText(rng *rand.Rand, lines, width int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString(docLine(rng, width-10+rng.Intn(20)))
		b.WriteByte('\n')
	}
	return b.String()
}

var runStyles = []string{"bold", "italic", "typewriter", "bigger"}

// styleRuns applies n seeded style runs, each a few words long and spread
// evenly over doc.
func styleRuns(rng *rand.Rand, doc *text.Data, n int) error {
	stride := doc.Len() / (n + 1)
	for i := 0; i < n; i++ {
		start := (i+1)*stride + rng.Intn(stride/2)
		end := start + 8 + rng.Intn(24)
		if end > doc.Len() {
			end = doc.Len()
		}
		if err := doc.SetStyle(start, end, runStyles[rng.Intn(len(runStyles))]); err != nil {
			return err
		}
	}
	return nil
}

// embedTable embeds a rows x cols table of numbers at the start of line
// `line` of doc and returns its anchor position.
func embedTable(rng *rand.Rand, doc *text.Data, reg *class.Registry, line, rows, cols int) (int, error) {
	pos := 0
	for i := 0; i < line; i++ {
		pos = doc.LineEnd(pos) + 1
	}
	tbl := table.New(rows, cols)
	tbl.SetRegistry(reg)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if err := tbl.SetNumber(r, c, float64(rng.Intn(1000))); err != nil {
				return 0, err
			}
		}
	}
	return pos, doc.Embed(pos, tbl, "spread")
}

// typist generates the text-editing stream of one user: mostly printable
// characters at the caret, about 10% backspace, a Return now and then, and
// a jump to a fresh seeded position every ~60 keys. Backspace only ever
// removes what this typist typed since its last jump, so it never deletes
// another writer's text or an embedded component.
type typist struct {
	rng       *rand.Rand
	caret     int
	sinceJump int // keys typed since the last jump that backspace may remove
	untilJump int
}

// key is one text edit: insert s at pos, or delete one rune before pos.
type key struct {
	pos    int
	insert string // "" for a backspace
}

func newTypist(rng *rand.Rand, caret int) *typist {
	return &typist{rng: rng, caret: caret, untilJump: 40 + rng.Intn(40)}
}

// next returns the next edit; docLen is the writer's current document
// length and lineStart finds the start of the line holding a position.
func (t *typist) next(docLen int, lineStart func(int) int) key {
	t.untilJump--
	if t.untilJump <= 0 {
		t.untilJump = 40 + t.rng.Intn(40)
		t.caret = lineStart(t.rng.Intn(docLen))
		t.sinceJump = 0
	}
	r := t.rng.Intn(100)
	switch {
	case r < 10 && t.sinceJump > 0:
		k := key{pos: t.caret}
		t.caret--
		t.sinceJump--
		return k
	case r < 13:
		k := key{pos: t.caret, insert: "\n"}
		t.caret++
		t.sinceJump++
		return k
	default:
		k := key{pos: t.caret, insert: string(rune('a' + t.rng.Intn(26)))}
		if r%7 == 0 {
			k.insert = " "
		}
		t.caret++
		t.sinceJump++
		return k
	}
}

// delta is the document-length change of k.
func (k key) delta() int {
	if k.insert == "" {
		return -1
	}
	return 1
}

// apply performs k on doc.
func (k key) apply(doc *text.Data) error {
	if k.insert == "" {
		return doc.Delete(k.pos-1, 1)
	}
	return doc.Insert(k.pos, k.insert)
}
