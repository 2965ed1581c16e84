package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise, so the tail is capped at the
// highest percentile that still has this many samples past it.
const minBeyond = 10

// tailQuantile returns the quantile to report for a tail of n samples: the
// wanted one, or the highest lower one that has at least minBeyond samples
// beyond it (nearest rank). It returns 0 when n is too small for any.
func tailQuantile(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	q := float64(n-minBeyond) / float64(n)
	if want < q {
		q = want
	}
	return q
}

// quantile is the nearest-rank quantile of sorted; q = 0 yields the
// minimum.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// dist summarizes one latency series.
type dist struct {
	N     int
	P50   float64
	Tail  float64 // at TailQ, the requested tail or the highest supported
	TailQ float64
	P99   float64 // raw p99, reported but never checked
}

// summarize reads the median and the tail (p90, or lower when the series
// is short; see tailQuantile) of the pooled samples.
func summarize(samples []float64) dist {
	vals := append([]float64(nil), samples...)
	sort.Float64s(vals)
	d := dist{N: len(vals), TailQ: tailQuantile(len(vals), 0.90)}
	d.P50 = quantile(vals, 0.5)
	d.Tail = quantile(vals, d.TailQ)
	d.P99 = quantile(vals, 0.99)
	return d
}

// window is how many consecutive ops one window of a series holds.
const window = 500

// windowed reads a time-ordered series as the median, over consecutive
// windows of `window` ops, of each window's p50 and p90. Interference from
// outside the program comes in bursts on a shared VM (the hypervisor's
// steal reached 10-23% of CPU time in some periods, and a descheduled vCPU
// adds milliseconds to every op in flight): a burst inflates the windows it hits, and the median over
// windows holds while it hits fewer than half of them, where the pooled
// p90 moves as soon as a tenth of the ops are hit. A series too short for
// three windows is read pooled.
func windowed(vals []float64) dist {
	n := len(vals)
	if n < 3*window {
		return summarize(vals)
	}
	var p50s, tails []float64
	for i := 0; i < n; i += window {
		j := i + window
		if n-j < window {
			j = n // the short remainder joins the last window
		}
		d := summarize(vals[i:j])
		p50s = append(p50s, d.P50)
		tails = append(tails, d.Tail)
		if j == n {
			break
		}
	}
	return dist{N: n, P50: median(p50s), Tail: median(tails), TailQ: 0.90, P99: summarize(vals).P99}
}

// windowedMean is the median, over the same windows as windowed, of each
// window's mean: the centre for a series whose distribution has two modes.
// There the p50 sits in the trough between them, where little mass lies,
// so a small shift of either mode moves it far; a window's mean moves only
// as far as its samples do. A series too short for three windows is read
// as its mean.
func windowedMean(vals []float64) float64 {
	n := len(vals)
	if n < 3*window {
		return mean(vals)
	}
	var means []float64
	for i := 0; i < n; i += window {
		j := i + window
		if n-j < window {
			j = n
		}
		means = append(means, mean(vals[i:j]))
		if j == n {
			break
		}
	}
	return median(means)
}

// median returns the middle value of vals (the mean of the middle two for
// an even count), leaving vals sorted.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// tally counts attempted and failed ops. A round whose correctness gate
// fails counts every op it attempted as failed.
type tally struct {
	attempted, failed int
}

func (t *tally) add(attempted, failed int, gateOK bool) {
	t.attempted += attempted
	if gateOK {
		t.failed += failed
	} else {
		t.failed += attempted
	}
}

// okRatio is the share of attempted ops that did not fail; a run that
// attempted nothing has succeeded at nothing.
func (t tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// heapSampler polls the live heap during a measured phase and keeps the
// peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := readHeap(s); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// procSnap is the process's cost counters at one instant.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration
	allocs  uint64
	bytes   uint64
	gcs     uint64
	pauseNs uint64
	spin    time.Duration
	sched   []uint64 // /sched/latencies:seconds bucket counts
	// Machine-wide CPU ticks and the share the hypervisor stole, read
	// from /proc/stat (zero where it is missing).
	ticks, steal uint64
}

// cpuTicks returns the machine's total CPU ticks and the stolen ones.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // guest time (fields 9, 10) is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

var runtimeCounters = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", schedMetric}

// schedMetric is the runtime's histogram of how long runnable goroutines
// waited for a P: the wake-up cost a loaded 2-vCPU machine adds to every
// hop of a commit.
const schedMetric = "/sched/latencies:seconds"

// schedBuckets holds the histogram's bucket bounds (fixed for the process).
var schedBuckets []float64

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero cost counters on failure
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var sched []uint64
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		sched = append(sched, h.Counts...)
		schedBuckets = h.Buckets
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ticks, steal := cpuTicks()
	return procSnap{
		ticks:   ticks,
		steal:   steal,
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  u(0),
		bytes:   u(1),
		gcs:     u(2),
		pauseNs: ms.PauseTotalNs,
		spin:    time.Duration(spinCPU.Load()),
		sched:   sched,
	}
}

// procCost accumulates process cost over the measured phases of a run.
// Its CPU time leaves out the time generators spent polling.
type procCost struct {
	wall, cpu          time.Duration
	allocs, bytes, gcs uint64
	pause              time.Duration
	ticks, steal       uint64
	sched              []uint64 // scheduling-latency bucket counts
}

func (p *procCost) add(a, b procSnap) {
	p.wall += b.wall.Sub(a.wall)
	p.cpu += b.cpu - a.cpu - (b.spin - a.spin) // the generators' polling is not the program's cost
	p.allocs += b.allocs - a.allocs
	p.bytes += b.bytes - a.bytes
	p.gcs += b.gcs - a.gcs
	p.pause += time.Duration(b.pauseNs - a.pauseNs)
	p.ticks += b.ticks - a.ticks
	p.steal += b.steal - a.steal
	if len(p.sched) < len(b.sched) {
		p.sched = append(p.sched, make([]uint64, len(b.sched)-len(p.sched))...)
	}
	for i := range b.sched {
		if i < len(a.sched) {
			p.sched[i] += b.sched[i] - a.sched[i]
		}
	}
}

// schedP50Us is the median scheduling latency over the measured phases,
// read as the upper bound of the bucket holding it.
func (p *procCost) schedP50Us() float64 {
	var n uint64
	for _, c := range p.sched {
		n += c
	}
	if n == 0 || len(schedBuckets) != len(p.sched)+1 {
		return 0
	}
	var seen uint64
	for i, c := range p.sched {
		seen += c
		if 2*seen >= n {
			return schedBuckets[i+1] * 1e6
		}
	}
	return 0
}

// stealPct is the share of the machine's CPU time the hypervisor took
// away during the measured phases: the interference the run could not
// control, printed so a disturbed run can be told apart.
func (p *procCost) stealPct() float64 {
	if p.ticks == 0 {
		return 0
	}
	return 100 * float64(p.steal) / float64(p.ticks)
}

// durUs converts a duration to microseconds as a float.
func durUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
