// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the real code paths in process, checks the program's
// outputs, and prints every metric by name with its unit; the last line of
// its output is one JSON object with the result.
//
//	perfbench --workload collab|commit_join|edit_local --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// wrapper or span anywhere on the path. With --trace 1 it runs the same
// rounds twice, untraced and then traced, and prints the per-layer
// metrics: spans recorded around the benchmark's calls into each layer,
// counters read at the same boundaries, a stage replay of the run's own op
// stream, and the tracing overhead between the two passes.
//
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one benchmark workload: a round sets up from scratch,
// measures for the given phase and checks its outputs.
type workload struct {
	run func(env *roundEnv) (*roundResult, error)
	// params describe the inputs, for the provenance record.
	params map[string]any
	// fixedRounds is the number of rounds a run splits its time into; 0
	// means repeat a fixed-length round until the time is used up.
	fixedRounds int
	// meanCentre reads op_p50_us and aux_p50_us as the median of window
	// means (windowedMean) instead of window p50s, for latencies with two
	// modes.
	meanCentre bool
}

// The workloads' rationale and sizing sit beside their definitions:
// collab.go, commitjoin.go and editlocal.go.
var workloads = map[string]workload{
	"collab": {run: runCollab, fixedRounds: 3, params: map[string]any{
		"doc_lines": collabLines, "style_runs": collabRuns, "table": fmt.Sprintf("%dx%d", collabTableDim, collabTableDim),
		"a_keys_per_s": int(time.Second / collabKeyEvery), "b_cells_per_s": int(time.Second / collabCellEvery),
		"loop": "open"}},
	"commit_join": {run: runCommitJoin, fixedRounds: 3, params: map[string]any{
		"doc_lines": joinLines, "writer": "closed loop: key, wait for its ack, think", "think_us": joinThink.Microseconds(),
		"attaches_per_s": int(time.Second / joinAttachEvery), "loop": "closed writer, open churner"}},
	"edit_local": {run: runEditLocal, meanCentre: true, params: map[string]any{
		"doc_lines": editLines, "style_runs": editRuns, "window": fmt.Sprintf("%dx%d", editW, editH),
		"script_keys": editScriptKeys, "loop": "closed"}},
}

// minRounds is the fewest measured rounds a run makes.
const minRounds = 3

// setupRounds is how many extra set-up-only rounds the untraced pass runs
// before its measured rounds, so setup_s is a median of at least twenty.
const setupRounds = 17

func main() {
	name := flag.String("workload", "", "collab, commit_join or edit_local")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = also run a traced pass and print the per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for span files, and for documents when there is no tmpfs")
	tmpfs := flag.String("tmpfs", "/dev/shm", "tmpfs directory for documents, journals, sidecars and offline journals")
	commit := flag.String("commit", "unknown", "source commit, for the provenance record")
	dirty := flag.String("dirty", "unknown", "whether the source tree had local changes")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload collab|commit_join|edit_local --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	st, err := openStorage(*tmpfs, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The files go whatever way the run ends; a signal ends it here too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(st.dir)
		os.Exit(1)
	}()
	err = run(*name, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir, [2]string{*commit, *dirty}, st)
	if rerr := os.RemoveAll(st.dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// calibrateFor is how long each calibration loop runs.
const calibrateFor = 200 * time.Millisecond

func run(name string, wl workload, seed int64, d time.Duration, traced bool, workdir string, vcs [2]string, st storage) error {
	prov := provenance(name, seed, d, traced, wl.params, vcs, st)
	prov["calib_before_per_s"] = calibrate(calibrateFor)
	fmt.Printf("files in %s (%s)\n", st.dir, st.fsType)

	base, err := runPass(name, wl, seed, d, st.dir, false)
	if err != nil {
		return err
	}
	out := result{Correct: len(base.gateErrs) == 0, Attempted: base.t.attempted, Failed: base.t.failed, Metrics: map[string]metric{}}
	printReport(name, base)
	var tp *passResult
	if !traced {
		for _, m := range endToEnd(base) {
			out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	} else {
		if tp, err = runPass(name, wl, seed, d, st.dir, true); err != nil {
			return err
		}
		out.Correct = out.Correct && len(tp.gateErrs) == 0
		out.Attempted += tp.t.attempted
		out.Failed += tp.t.failed
		for _, e := range tp.gateErrs {
			fmt.Printf("gate FAILED (traced pass) %s\n", e)
		}
		for _, m := range perLayer(name, base, tp) {
			fmt.Printf("layer %-32s %14.4f %s\n", m.name, m.value, m.unit)
			out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
		spanFile := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tp.tr.write(spanFile); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", spanFile)
	}
	prov["calib_after_per_s"] = calibrate(calibrateFor)
	prov["steal_pct"] = base.cost.stealPct()
	if tp != nil {
		prov["steal_pct_traced"] = tp.cost.stealPct()
	}
	pb, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pb)
	if out.Attempted < 1 {
		return errors.New("no op was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is everything one pass (all rounds, traced or not) measured.
type passResult struct {
	setup, op, aux, late, heap []float64
	done                       int
	measured                   time.Duration // wall time of the measured phases
	t                          tally
	gateErrs                   []string
	cost                       procCost
	layer                      layerAcc
	tr                         *tracer
	meanCentre                 bool
}

// centres returns the op and aux figures op_p50_us and aux_p50_us report:
// the median over windows of each window's p50, or of each window's mean
// on a workload with meanCentre set.
func (p *passResult) centres() (op, aux float64) {
	if p.meanCentre {
		return windowedMean(p.op), windowedMean(p.aux)
	}
	return windowed(p.op).P50, windowed(p.aux).P50
}

// runPass runs the workload's rounds. Both passes of a traced run use the
// same round seeds, so they see the same inputs.
func runPass(name string, wl workload, seed int64, d time.Duration, dir string, traced bool) (*passResult, error) {
	p := &passResult{meanCentre: wl.meanCentre}
	var m *meter
	if traced {
		p.tr = newTracer()
		m = &meter{tr: p.tr}
	}
	phase := d
	if wl.fixedRounds > 0 {
		phase = d / time.Duration(wl.fixedRounds)
	}
	extra := 0
	if !traced {
		extra = setupRounds
	}
	for r := -extra; r < minRounds || (wl.fixedRounds == 0 && p.measured < d) || r < wl.fixedRounds; r++ {
		rdir, err := os.MkdirTemp(dir, name+"-")
		if err != nil {
			return nil, err
		}
		// Measured round r draws its inputs from seed*1000+r however many
		// set-up-only rounds come first; those draw from seed*1000+900 on.
		rseed := seed*1000 + int64(r)
		if r < 0 {
			rseed = seed*1000 + 900 + int64(r+extra)
		}
		env := &roundEnv{seed: rseed, dir: rdir, phase: phase, traced: traced,
			meter: m, cost: &p.cost, layer: &p.layer, setupOnly: r < 0}
		runtime.GC() // each round starts from the same heap, not the last round's garbage
		res, err := wl.run(env)
		if rerr := os.RemoveAll(rdir); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, r, err)
		}
		p.setup = append(p.setup, res.setup.Seconds())
		if env.setupOnly {
			continue
		}
		p.measured += res.wall
		p.op = append(p.op, res.op...)
		p.aux = append(p.aux, res.aux...)
		p.late = append(p.late, res.late...)
		p.heap = append(p.heap, res.heapMB)
		p.done += res.done
		p.t.add(res.attempted, res.failed, res.gate == nil)
		if res.gate != nil {
			p.gateErrs = append(p.gateErrs, fmt.Sprintf("round %d: %v", r, res.gate))
		}
	}
	if m != nil {
		p.layer.jWrites = m.fs.writes.Load()
		p.layer.jBytes = m.fs.bytes.Load()
		p.layer.jSyncs = m.fs.syncs.Load()
	}
	return p, nil
}

type named struct {
	name  string
	value float64
	unit  string
}

// endToEnd reads the end-to-end metrics off the untraced pass. The tails
// (op_p90_us, aux_p90_us) are printed in the report and, from a traced
// run, as per-layer metrics, but are not end-to-end metrics: on the shared
// 2-vCPU VM the collab p90s followed the hypervisor's steal, not the
// program. Over ten seeded runs with steal at 1-18% the commit p90 read
// 495-2908 µs, a quartile spread of 0.44 of its median, against 0.05 for
// cpu_us_per_op and 0.14 for the commit p50 in the same runs; no bound the
// benchmark may set (at most 0.25) would hold it.
func endToEnd(p *passResult) []named {
	op, aux := p.centres()
	return []named{
		{"setup_s", median(append([]float64(nil), p.setup...)), "s"},
		{"op_p50_us", op, "us"},
		{"aux_p50_us", aux, "us"},
		{"ops_per_s", float64(p.done) / max(p.measured.Seconds(), 1e-9), "1/s"},
		{"cpu_us_per_op", per(durUs(p.cost.cpu), p.done), "us"},
		{"heap_peak_mb", median(append([]float64(nil), p.heap...)), "MB"},
		{"ops_ok_ratio", p.t.okRatio(), "ratio"},
	}
}

// opNames says what op and aux measure on each workload, for the report.
var opNames = map[string][2]string{
	"collab":      {"commit (edit -> covering ack, both writers)", "deliver (due -> applied on the other replica)"},
	"commit_join": {"commit (key -> ack, closed loop)", "attach (due -> Connect live, fresh client)"},
	"edit_local":  {"editing key (HandleEvent: dispatch + repaint)", "navigation key (arrows, page, home/end)"},
}

// printReport prints the end-to-end figures with their sample counts, the
// percentile each tail really is, the pooled figures beside the windowed
// ones, and the unchecked raw p99.
func printReport(name string, p *passResult) {
	for i, series := range [][]float64{p.op, p.aux} {
		w, d := windowed(series), summarize(series)
		fmt.Printf("%-4s %-48s n=%d windowed p50=%.1fus p%.1f=%.1fus mean=%.1fus; pooled p50=%.1fus p%.1f=%.1fus p99(unchecked)=%.1fus\n",
			[]string{"op", "aux"}[i], opNames[name][i], d.N, w.P50, 100*w.TailQ, w.Tail, windowedMean(series), d.P50, 100*d.TailQ, d.Tail, d.P99)
	}
	late := summarize(p.late)
	fmt.Printf("gen  open-loop lateness n=%d p50=%.1fus p90=%.1fus\n", late.N, late.P50, late.Tail)
	fmt.Printf("ops  attempted=%d failed=%d done=%d in %.2fs measured; setup per round %v s\n",
		p.t.attempted, p.t.failed, p.done, p.cost.wall.Seconds(), p.setup)
	fmt.Printf("host steal %.1f%% of the machine's CPU time during the measured phases\n", p.cost.stealPct())
	for _, e := range p.gateErrs {
		fmt.Printf("gate FAILED %s\n", e)
	}
	for _, m := range endToEnd(p) {
		fmt.Printf("e2e  %-14s %14.4f %s\n", m.name, m.value, m.unit)
	}
}
