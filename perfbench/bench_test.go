package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"atk/internal/persist"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 2000; n++ {
		q := tailQuantile(n, 0.90)
		if n <= minBeyond {
			if q != 0 {
				t.Fatalf("n=%d: q=%v, want 0 (too few samples for any tail)", n, q)
			}
			continue
		}
		if q > 0.90 {
			t.Fatalf("n=%d: q=%v above the wanted p90", n, q)
		}
		beyond := n - int(math.Ceil(q*float64(n)))
		if beyond < minBeyond {
			t.Fatalf("n=%d: q=%v leaves %d samples beyond, want >= %d", n, q, beyond, minBeyond)
		}
		// It is the highest such percentile: one rank further leaves fewer.
		if q < 0.90 && n-int(math.Ceil(q*float64(n)))-1 >= minBeyond {
			t.Fatalf("n=%d: q=%v is not the highest percentile with %d beyond", n, q, minBeyond)
		}
	}
	if q := tailQuantile(1000, 0.90); q != 0.90 {
		t.Fatalf("n=1000: q=%v, want 0.90", q)
	}
	if q := tailQuantile(50, 0.90); q != 0.80 {
		t.Fatalf("n=50: q=%v, want 0.80", q)
	}
}

func TestSummarizeStatesSampleCount(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i) // 1..200, reversed
	}
	d := summarize(vals)
	if d.N != 200 || d.P50 != 100 || d.TailQ != 0.90 || d.Tail != 180 || d.P99 != 198 {
		t.Fatalf("summarize = %+v", d)
	}
}

// A burst that slows one window in five moves the pooled p90 but not the
// median over windows.
func TestWindowedIgnoresABurst(t *testing.T) {
	var vals []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < window; i++ {
			v := float64(100 + i%100) // p50 150, p90 190 in every window
			if w == 2 {
				v *= 10 // a burst of interference slows this window
			}
			vals = append(vals, v)
		}
	}
	w, pooled := windowed(vals), summarize(vals)
	if w.N != len(vals) || w.P50 != 149 || w.Tail != 189 {
		t.Fatalf("windowed = %+v, want p50 149 and p90 189 from the four clean windows", w)
	}
	if pooled.Tail <= 1000 {
		t.Fatalf("pooled p90 %v; the burst should have moved it", pooled.Tail)
	}
	if short := windowed(vals[:2*window]); short.Tail != summarize(vals[:2*window]).Tail {
		t.Fatalf("a series shorter than three windows should be read pooled")
	}
}

// With two modes in near-equal shares, moving two ops in a hundred from one
// mode to the other throws the p50 from one mode to the other; the mean of
// each window moves by a few percent, and a burst window is still ignored.
func TestWindowedMeanHoldsOnTwoModes(t *testing.T) {
	series := func(slowPct int, burst bool) []float64 {
		var vals []float64
		for w := 0; w < 5; w++ {
			for i := 0; i < window; i++ {
				v := 300.0
				if i%100 < slowPct {
					v = 525
				}
				if burst && w == 2 {
					v *= 10
				}
				vals = append(vals, v)
			}
		}
		return vals
	}
	a, b := series(49, false), series(51, true)
	if pa, pb := windowed(a).P50, windowed(b).P50; pa != 300 || pb != 525 {
		t.Fatalf("windowed p50s %v and %v; the mix shift should throw the p50 across the trough", pa, pb)
	}
	ma, mb := windowedMean(a), windowedMean(b)
	if want := 300 + 0.49*225; math.Abs(ma-want) > 1e-9 {
		t.Fatalf("windowedMean = %v, want %v", ma, want)
	}
	if mb/ma-1 > 0.02 {
		t.Fatalf("windowedMean moved from %v to %v; it should hold within 2%% and ignore the burst window", ma, mb)
	}
	if short := a[:2*window]; windowedMean(short) != mean(short) {
		t.Fatalf("a series shorter than three windows should be read as its mean")
	}
}

// A stall in the middle of an open-loop run delays the ops due during it,
// and latency timed from the due time shows that wait on every one of
// them, not just on the op that stalled.
func TestOpenLoopStallShowsInLaterOps(t *testing.T) {
	const period = time.Millisecond
	const stall = 30 * time.Millisecond
	start := time.Now()
	s := schedule{start: start, period: period}
	var lat []time.Duration
	late := openLoop(s, start.Add(40*period), sleepUntil, func(i int, due time.Time) {
		if i == 5 {
			time.Sleep(stall)
		}
		lat = append(lat, time.Since(due))
	})
	if len(lat) != 40 || len(late) != 40 {
		t.Fatalf("ran %d ops (%d lateness samples), want 40", len(lat), len(late))
	}
	// Op 6 was due 1ms after op 5 started its 30ms stall; it could not
	// start before the stall ended, so it waited ~29ms.
	if lat[6] < stall-2*period {
		t.Fatalf("op 6 latency %v does not include the stall it waited out", lat[6])
	}
	if late[6] < durUs(stall-2*period) {
		t.Fatalf("op 6 lateness %.0fus does not show the stall", late[6])
	}
	// Ops due during the stall all carry part of it.
	for i := 6; i < 30; i++ {
		if want := stall - time.Duration(i-5)*period - period; lat[i] < want {
			t.Fatalf("op %d latency %v, want >= %v", i, lat[i], want)
		}
	}
}

func TestTallyCountsFailedRounds(t *testing.T) {
	var tl tally
	if tl.okRatio() != 0 {
		t.Fatalf("empty tally ok ratio %v, want 0", tl.okRatio())
	}
	tl.add(10, 2, true) // two ops missed their ack
	tl.add(5, 1, false) // the round failed its gate: all five count as failed
	tl.add(20, 0, true) // clean round
	if tl.attempted != 35 || tl.failed != 7 {
		t.Fatalf("tally = %+v, want 35 attempted, 7 failed", tl)
	}
	if got, want := tl.okRatio(), 28.0/35.0; got != want {
		t.Fatalf("ok ratio %v, want %v", got, want)
	}
}

// appendUntilLatched appends records until the journal latches an error
// and returns how many succeeded and the latched error.
func appendUntilLatched(t *testing.T, fsys persist.FS) (int, error) {
	t.Helper()
	j, err := persist.CreateJournal(fsys, "doc.d.journal", "header", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 50; i++ {
		if err := j.Append("i 0 x"); err != nil {
			if again := j.Append("i 0 y"); !errors.Is(again, err) {
				t.Fatalf("after %v the journal accepted another append (%v)", err, again)
			}
			return i, j.Err()
		}
	}
	return 50, nil
}

// The timing FS is a pass-through: a FaultFS under it still latches the
// journal's first error, after exactly as many good appends as without it.
func TestTimingFSPassesFaultsThrough(t *testing.T) {
	bare := persist.NewFaultFS(persist.NewMemFS())
	bare.SetRecurring(7, 0)
	nBare, errBare := appendUntilLatched(t, bare)

	inner := persist.NewFaultFS(persist.NewMemFS())
	inner.SetRecurring(7, 0)
	m := &meter{tr: newTracer()}
	m.on.Store(true)
	timed := &timingFS{inner: inner, m: m}
	nTimed, errTimed := appendUntilLatched(t, timed)

	if errBare == nil || !errors.Is(errTimed, persist.ErrNoSpace) {
		t.Fatalf("journal errors: bare %v, timed %v; want the injected ENOSPC latched", errBare, errTimed)
	}
	if nBare != nTimed || errBare.Error() != errTimed.Error() {
		t.Fatalf("bare FS latched %q after %d appends, timed FS %q after %d", errBare, nBare, errTimed, nTimed)
	}
	if m.fs.writes.Load() == 0 {
		t.Fatal("the timing FS counted no journal writes")
	}
}

func TestTimingFSPassesBytesThrough(t *testing.T) {
	mem := persist.NewMemFS()
	m := &meter{tr: newTracer()}
	m.on.Store(true)
	fsys := &timingFS{inner: mem, m: m}
	want := []byte("line one\nline two\n")
	f, err := fsys.Create("doc.d.journal")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(want); n != len(want) || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := persist.ReadFile(mem, "doc.d.journal")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("inner FS holds %q (%v), want %q", got, err, want)
	}
	// A seekable file stays seekable through the wrapper.
	rf, err := fsys.Open("doc.d.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	sk, ok := rf.(io.Seeker)
	if !ok {
		t.Fatal("wrapped MemFS file lost io.Seeker")
	}
	if _, err := sk.Seek(5, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(rf)
	if err != nil || string(rest) != string(want[5:]) {
		t.Fatalf("read after seek = %q, %v", rest, err)
	}
	if _, err := fsys.Open("missing"); !persist.IsNotExist(err) {
		t.Fatalf("open of a missing file: %v, want not-exist", err)
	}
	if m.fs.writes.Load() != 1 || m.fs.bytes.Load() != int64(len(want)) || m.fs.syncs.Load() != 1 {
		t.Fatalf("counted %d writes, %d bytes, %d syncs", m.fs.writes.Load(), m.fs.bytes.Load(), m.fs.syncs.Load())
	}
}

func TestTimedConnPassesThrough(t *testing.T) {
	a, b := net.Pipe()
	m := &meter{tr: newTracer()}
	m.on.Store(true)
	tc := newTimedConn(a, m, "net.cli_write")
	go func() {
		buf := make([]byte, 5)
		if _, err := io.ReadFull(b, buf); err == nil {
			_, _ = b.Write(buf) // echo
		}
		b.Close()
	}()
	if n, err := tc.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(tc, got); err != nil || string(got) != "hello" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	if _, err := tc.Read(got); !errors.Is(err, io.EOF) {
		t.Fatalf("read after the peer closed: %v, want EOF", err)
	}
	if tc.writes.Load() != 1 || tc.wbytes.Load() != 5 || tc.rbytes.Load() != 5 {
		t.Fatalf("counted %d writes, %d bytes out, %d in", tc.writes.Load(), tc.wbytes.Load(), tc.rbytes.Load())
	}
	tc.Close()
	if _, err := tc.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after close: %v, want the pipe's own error", err)
	}
}

// The workloads and metric names the benchmark prints are exactly the ones
// BENCHMARK.json declares, in the same order, with the same units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the binary does not define", w.Name)
		}
	}
	for name := range workloads {
		if !declared[name] {
			t.Errorf("the binary defines workload %q, which BENCHMARK.json does not declare", name)
		}
	}
	e2e := endToEnd(&passResult{})
	if len(e2e) != len(spec.EndToEnd) {
		t.Fatalf("%d end-to-end metrics printed, %d declared", len(e2e), len(spec.EndToEnd))
	}
	for i, m := range e2e {
		if d := spec.EndToEnd[i]; m.name != d.Name || m.unit != d.Unit {
			t.Errorf("end-to-end metric %d is %s/%s, declared %s/%s", i, m.name, m.unit, d.Name, d.Unit)
		}
	}
	if len(layerSpecs) != len(spec.PerLayer) {
		t.Fatalf("%d per-layer metrics printed, %d declared", len(layerSpecs), len(spec.PerLayer))
	}
	for i, s := range layerSpecs {
		if d := spec.PerLayer[i]; s.name != d.Name || s.unit != d.Unit || s.better != d.Better {
			t.Errorf("per-layer metric %d is %s/%s/%s, declared %s/%s/%s", i, s.name, s.unit, s.better, d.Name, d.Unit, d.Better)
		}
	}
	// A traced run prints every declared per-layer metric.
	got := perLayer("collab", &passResult{}, &passResult{tr: newTracer()})
	if len(got) != len(spec.PerLayer) {
		t.Fatalf("a traced run prints %d per-layer metrics, %d declared", len(got), len(spec.PerLayer))
	}
}

// burn keeps the CPU busy for d of wall time.
func burn(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// Polling that applied frames is the program's work; only idle polling
// counts as the generator's own spin, which cpu_us_per_op leaves out.
func TestSpinCountsOnlyIdlePolling(t *testing.T) {
	before := spinCPU.Load()
	calls := 0
	spinUntil(time.Now().Add(20*time.Millisecond), func() (bool, bool) {
		calls++
		if calls == 1 {
			burn(15 * time.Millisecond) // one poll that did work
			return true, true
		}
		return false, true
	})
	spun := time.Duration(spinCPU.Load() - before)
	if spun <= 0 || spun > 10*time.Millisecond {
		t.Fatalf("counted %v of spin; want the ~5ms of idle polling, not the 15ms poll that did work", spun)
	}
}

// While a spinner yields, the program's goroutines run in its place, on
// its thread too; their CPU is the program's cost, not the spinner's.
func TestSpinLeavesOutOtherGoroutinesCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stop := make(chan struct{})
	busyDone := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				busyDone <- n
				return
			default:
			}
			burn(200 * time.Microsecond)
			n++
			runtime.Gosched()
		}
	}()
	before := spinCPU.Load()
	t0 := time.Now()
	spinUntil(t0.Add(50*time.Millisecond), nil)
	wall := time.Since(t0)
	spun := time.Duration(spinCPU.Load() - before)
	close(stop)
	chunks := <-busyDone
	if chunks < 50 {
		t.Fatalf("the busy goroutine ran only %d chunks beside the spinner", chunks)
	}
	if spun <= 0 || spun > wall/4 {
		t.Fatalf("counted %v of spin in %v beside %d busy chunks; want the spinner's own share, well under a quarter", spun, wall, chunks)
	}
}

// Without a tmpfs the run goes on in the fallback directory and says so;
// it never passes a disk off as tmpfs.
func TestStorageFallbackIsLoud(t *testing.T) {
	notTmpfs := t.TempDir()
	if fsTypeOf(notTmpfs) == "tmpfs" {
		t.Skip("the test's temp dir is itself on tmpfs")
	}
	st, err := openStorage(notTmpfs, filepath.Join(t.TempDir(), "fallback"))
	if err != nil {
		t.Fatal(err)
	}
	if st.fsType == "tmpfs" || !strings.HasPrefix(st.fsType, "not tmpfs") {
		t.Fatalf("fallback storage reports %q", st.fsType)
	}
	if _, err := os.Stat(st.dir); err != nil {
		t.Fatal(err)
	}
}

// One short round of each declared workload runs its real paths and
// passes its correctness gate, untraced and traced.
func TestDeclaredWorkloadsPassTheirGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, name := range []string{"collab", "commit_join", "edit_local"} {
		for _, traced := range []bool{false, true} {
			env := &roundEnv{seed: 1, dir: t.TempDir(), phase: 300 * time.Millisecond, traced: traced,
				cost: &procCost{}, layer: &layerAcc{}}
			if traced {
				env.meter = &meter{tr: newTracer()}
			}
			res, err := workloads[name].run(env)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if res.gate != nil || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s (traced %v): gate %v, %d of %d ops failed", name, traced, res.gate, res.failed, res.attempted)
			}
		}
	}
}
