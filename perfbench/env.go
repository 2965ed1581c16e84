package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"atk/internal/docserve"
	"atk/internal/persist"
)

// provenance records where a result came from. It is printed with every
// result and never used to drop or adjust a run: the steal share and the
// calibration rates let a reader tell a disturbed machine from a slow
// program.
func provenance(name string, seed int64, d time.Duration, traced bool, params map[string]any, vcs [2]string, st storage) map[string]any {
	return map[string]any{
		"workload": name, "seed": seed, "seconds": d.Seconds(), "trace": traced, "params": params,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": vcs[0], "dirty": vcs[1], "cpu": cpuModel(),
		"start":         time.Now().UTC().Format(time.RFC3339),
		"files_dir":     st.dir,
		"files_fs":      st.fsType,
		"journal_flush": fmt.Sprintf("persist defaults: fsync every %d appends; client offline journal fsyncs every append", persist.DefaultBatchEvery),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo on Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times a fixed CPU-bound loop (SHA-256 of a 4 KiB block) for
// d and returns its rate per second. It is run before and after the
// measured passes: a machine that drifted shows a different rate, where a
// slow program does not.
func calibrate(d time.Duration) float64 {
	var buf [4096]byte
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 64; i++ {
			sum := sha256.Sum256(buf[:])
			buf[0] ^= sum[0]
			n++
		}
	}
	return float64(n) / time.Since(t0).Seconds()
}

// storage is where a run keeps its documents, journals, sidecars and
// offline journals.
type storage struct {
	dir    string // a fresh directory, removed when the run ends
	fsType string // "tmpfs", or what the fallback directory sits on
}

// tmpfsMagic is Linux's statfs f_type for tmpfs.
const tmpfsMagic = 0x01021994

// fsTypeOf names the filesystem dir sits on, as far as the benchmark
// cares: tmpfs or not.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return fmt.Sprintf("not tmpfs (statfs type 0x%x)", uint64(st.Type))
}

// openStorage makes the run's file directory under tmpfsDir. Journals are
// fsync'd on the commit path; on a VM's virtual disk that fsync swung the
// collab commit p90 from 827 to 1071 µs over six runs, against 528-641 µs
// with the same files on tmpfs, so the files go to tmpfs and the
// journal's real syscalls are timed without the hypervisor's disk. With
// no tmpfs the run goes on under fallback, and says so loudly on every
// result.
func openStorage(tmpfsDir, fallback string) (storage, error) {
	if fsTypeOf(tmpfsDir) == "tmpfs" {
		dir, err := os.MkdirTemp(tmpfsDir, "perfbench-")
		if err == nil {
			return storage{dir: dir, fsType: "tmpfs"}, nil
		}
		fmt.Fprintf(os.Stderr, "perfbench: cannot use tmpfs %s: %v\n", tmpfsDir, err)
	}
	if err := os.MkdirAll(fallback, 0o755); err != nil {
		return storage{}, err
	}
	dir, err := os.MkdirTemp(fallback, "files-")
	if err != nil {
		return storage{}, err
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	st := storage{dir: dir, fsType: fsTypeOf(dir)}
	msg := fmt.Sprintf("WARNING: NO TMPFS at %s: documents and journals are on %s at %s, so fsync timings follow that disk, not the program",
		tmpfsDir, st.fsType, dir)
	fmt.Println(msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	return st, nil
}

// roundEnv is what a workload round gets from the pass running it.
type roundEnv struct {
	seed   int64
	dir    string // the round's own directory under the run's storage
	phase  time.Duration
	traced bool
	meter  *meter // nil when untraced
	cost   *procCost
	layer  *layerAcc
	// setupOnly makes the round return right after set-up: set-up is
	// timed several more times than a run has rounds, so setup_s is a
	// median over enough samples.
	setupOnly bool
}

func (e *roundEnv) tracer() *tracer {
	if e.meter == nil {
		return nil
	}
	return e.meter.tr
}

// roundResult is what one round measured.
type roundResult struct {
	setup             time.Duration
	op, aux, late     []float64
	heapMB            float64
	done              int // ops completed in the measured phase
	attempted, failed int
	wall              time.Duration
	gate              error
}

// phase brackets a measured phase.
type phase struct {
	snap  procSnap
	heap  *heapSampler
	srv   *served
	st0   docserve.Stats
	queue *queueSampler
}

func (e *roundEnv) beginPhase(srv *served) *phase {
	p := &phase{srv: srv, heap: startHeapSampler(5 * time.Millisecond)}
	if e.traced && srv != nil {
		p.st0 = srv.host.Stats()
		srv.host.LagWindow() // reset: the window covers this phase only
		p.queue = startQueueSampler(srv.host)
	}
	if e.traced {
		e.meter.on.Store(true)
	}
	p.snap = takeProcSnap()
	return p
}

func (e *roundEnv) endPhase(p *phase, res *roundResult, ops int) {
	end := takeProcSnap()
	e.cost.add(p.snap, end)
	res.wall = end.wall.Sub(p.snap.wall)
	res.heapMB = p.heap.finish()
	e.layer.ops += ops
	if !e.traced {
		return
	}
	e.meter.on.Store(false)
	if p.srv == nil {
		return
	}
	l := e.layer
	l.host.add(diffStats(p.st0, p.srv.host.Stats()))
	avg, mx, n := p.srv.host.LagWindow()
	l.lagSum += time.Duration(n) * avg
	l.lagCount += n
	l.lagMax = max(l.lagMax, mx)
	l.queueMax = max(l.queueMax, p.queue.finish())
	l.loadMs = append(l.loadMs, p.srv.loadMs)
}

// netLayer reads the connection counters of a traced round: sessions are
// the round's long-lived writers; every other server connection was a
// short attach.
func (e *roundEnv) netLayer(srv *served, sessions []*session) {
	addrs := map[string]bool{}
	for _, s := range sessions {
		addrs[s.localAddr] = true
		e.layer.cliWrites += s.tc.writes.Load()
		e.layer.cliBytes += s.tc.wbytes.Load()
	}
	for _, c := range srv.tl.serverConns(addrs) {
		e.layer.srvWrites += c.writes.Load()
		e.layer.srvBytes += c.wbytes.Load()
		e.layer.srvWriteTime += time.Duration(c.wtime.Load())
	}
}
