package main

import (
	"bytes"
	"fmt"
	"time"

	"atk/internal/class"
	"atk/internal/datastream"
	"atk/internal/ops"
	"atk/internal/persist"
	"atk/internal/text"
)

// layerAcc accumulates a traced pass's per-layer counters over its rounds.
type layerAcc struct {
	ops      int // client edits or keys in measured phases: the per-op base
	attaches int // short-lived attaches in measured phases

	host              hostDelta
	lagSum, lagMax    time.Duration
	lagCount          int64
	queueMax          int
	pendingMax        int
	pumps             int
	pumpTime          time.Duration
	connectMs         []float64
	attachBytes       []float64
	loadMs            []float64
	cliWrites         int64
	cliBytes          int64
	srvWrites         int64
	srvBytes          int64
	srvWriteTime      time.Duration
	jWrites, jBytes   int64
	jSyncs            int64
	encodeDocMs       []float64
	decodeDocMs       []float64
	replayOps         int
	decode, encode    time.Duration
	apply, xform      time.Duration
	escape            time.Duration
	textEdit          time.Duration
	textEdits         int
	drawables, pixels int64
	keys              int
}

func (h *hostDelta) add(d hostDelta) {
	h.opsApplied += d.opsApplied
	h.fanoutFrames += d.fanoutFrames
	h.checkpoints += d.checkpoints
	h.transformedAway += d.transformedAway
	h.opResyncs += d.opResyncs
	h.snapResyncs += d.snapResyncs
	h.kicks += d.kicks
	h.snapChunks += d.snapChunks
}

// origin classifies a committed record by who made it: 'h' for a host
// style checkpoint, 't' for a table edit, 'x' for a text edit.
func origin(op ops.Op) byte {
	switch {
	case op.Kind == ops.KindTable:
		return 't'
	case op.Kind == ops.KindText && op.Text.Kind == text.RecStyle:
		return 'h'
	default:
		return 'x'
	}
}

// replayStages reads the round's committed op stream back from the
// journal beside path (before it is closed and discarded) and replays it
// stage by stage over base, the saved document the journal is bound to:
// decode, transform, apply, encode, escape. The result must rebuild the
// document snapshot returns exactly; that is part of the correctness
// gate. In the traced pass the stage times are kept, and snapshot's own
// time is the document encode.
//
// The transform stage rebases each client op across the records of other
// origins committed since that writer's previous op: the bridge the host
// would fold if the writer had sent each op right after its last. That is
// an upper bound on the real bridges; a single writer's is always empty.
func (e *roundEnv) replayStages(base []byte, path string, snapshot func() ([]byte, error), reg *class.Registry) error {
	rep, err := persist.ReplayJournal(persist.OS, persist.JournalPath(path))
	if err != nil {
		return fmt.Errorf("reading the journal back: %w", err)
	}
	if rep.Damaged {
		return fmt.Errorf("journal damaged: %s", rep.Diag)
	}
	doc, err := decodeDoc(base, reg)
	if err != nil {
		return err
	}
	var decode, encode, apply, xform, escape time.Duration
	var buf []byte
	decoded := make([]ops.Op, 0, len(rep.Records))
	origins := make([]byte, 0, len(rep.Records))
	last := map[byte]int{}
	clientOps := 0
	for i, rec := range rep.Records {
		t0 := time.Now()
		op, err := ops.Decode(rec)
		decode += time.Since(t0)
		if err != nil {
			return fmt.Errorf("journal record %d: %w", i+1, err)
		}
		o := origin(op)
		if o != 'h' {
			clientOps++
			from := 0
			if prev, ok := last[o]; ok {
				from = prev + 1
			}
			var bridge []ops.Op
			for j := from; j < i; j++ {
				if origins[j] != o {
					bridge = append(bridge, decoded[j])
				}
			}
			if len(bridge) > 0 {
				t1 := time.Now()
				ops.XformDual([]ops.Op{op}, bridge, true)
				xform += time.Since(t1)
			}
			last[o] = i
		}
		decoded = append(decoded, op)
		origins = append(origins, o)
		t2 := time.Now()
		if err := ops.Apply(doc, op); err != nil {
			return fmt.Errorf("replaying journal record %d: %w", i+1, err)
		}
		t3 := time.Now()
		wire := ops.MustEncode(op)
		t4 := time.Now()
		buf = datastream.AppendEscaped(buf[:0], wire)
		t5 := time.Now()
		apply += t3.Sub(t2)
		encode += t4.Sub(t3)
		escape += t5.Sub(t4)
	}
	t0 := time.Now()
	snap, err := snapshot()
	encodeDoc := time.Since(t0)
	if err != nil {
		return err
	}
	got, err := persist.EncodeDocument(doc)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, snap) {
		return fmt.Errorf("the journal replays to a different document (%d vs %d bytes)", len(got), len(snap))
	}
	t1 := time.Now()
	if _, err := decodeDoc(snap, reg); err != nil {
		return fmt.Errorf("decoding the snapshot: %w", err)
	}
	decodeDocT := time.Since(t1)
	if e.traced {
		l := e.layer
		l.replayOps += clientOps
		l.decode += decode
		l.encode += encode
		l.apply += apply
		l.xform += xform
		l.escape += escape
		l.encodeDocMs = append(l.encodeDocMs, msOf(encodeDoc))
		l.decodeDocMs = append(l.decodeDocMs, msOf(decodeDocT))
	}
	return nil
}

// hostSnapshot is replayStages' snapshot for a served document.
func hostSnapshot(srv *served) func() ([]byte, error) {
	return func() ([]byte, error) {
		b, _, err := srv.host.Snapshot()
		return b, err
	}
}

// layerSpec names one per-layer metric; BENCHMARK.json lists the same.
type layerSpec struct{ name, unit, better string }

var layerSpecs = []layerSpec{
	{"op_p90_us", "us", "lower"},
	{"aux_p90_us", "us", "lower"},
	{"docserve.ops_applied", "count", "higher"},
	{"docserve.fanout_frames_per_op", "ratio", "lower"},
	{"docserve.checkpoints_per_op", "ratio", "lower"},
	{"docserve.transformed_away", "count", "lower"},
	{"docserve.resyncs", "count", "lower"},
	{"docserve.kicks", "count", "lower"},
	{"docserve.queue_depth_max", "count", "lower"},
	{"docserve.fanout_lag_avg_us", "us", "lower"},
	{"docserve.fanout_lag_max_us", "us", "lower"},
	{"docserve.snap_chunks", "count", "lower"},
	{"client.edit_us", "us", "lower"},
	{"client.pump_us", "us", "lower"},
	{"client.connect_ms", "ms", "lower"},
	{"client.group_ops", "ratio", "higher"},
	{"client.pending_max", "count", "lower"},
	{"net.srv_write_us", "us", "lower"},
	{"net.srv_writes_per_op", "ratio", "lower"},
	{"net.srv_bytes_per_op", "B", "lower"},
	{"net.cli_bytes_per_op", "B", "lower"},
	{"net.attach_bytes", "B", "lower"},
	{"persist.load_ms", "ms", "lower"},
	{"persist.append_us", "us", "lower"},
	{"persist.fsync_us", "us", "lower"},
	{"persist.fsyncs_per_op", "ratio", "lower"},
	{"persist.journal_bytes_per_op", "B", "lower"},
	{"persist.encode_doc_ms", "ms", "lower"},
	{"ops.decode_ns", "ns", "lower"},
	{"ops.encode_ns", "ns", "lower"},
	{"ops.apply_ns", "ns", "lower"},
	{"ops.xform_ns", "ns", "lower"},
	{"datastream.escape_ns", "ns", "lower"},
	{"datastream.decode_doc_ms", "ms", "lower"},
	{"text.edit_ns", "ns", "lower"},
	{"core.dispatch_us", "us", "lower"},
	{"core.flush_us", "us", "lower"},
	{"core.drawables_per_key", "count", "lower"},
	{"wsys.pixels_per_key", "count", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.sched_latency_p50_us", "us", "lower"},
	{"proc.cpu_util", "ratio", "lower"},
	{"proc.steal_pct", "%", "lower"},
	{"gen.late_p90_us", "us", "lower"},
	{"trace.overhead_pct.op_p50", "%", "lower"},
	{"trace.overhead_pct.aux_p50", "%", "lower"},
	{"trace.residue_pct", "%", "lower"},
}

func per(x float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return x / float64(n)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return per(s, len(xs))
}

func pctChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return (to/from - 1) * 100
}

// perLayer computes every per-layer metric from the untraced pass u (the
// runtime and process costs, and the end-to-end baseline) and the traced
// pass t (spans and counters). A metric whose layer does no work on this
// workload reads 0.
func perLayer(name string, u, t *passResult) []named {
	l := &t.layer
	sp := t.tr.aggregate()
	ns := func(d time.Duration) float64 { return per(float64(d.Nanoseconds()), l.replayOps) }
	uo, ua := u.centres()
	to, ta := t.centres()
	v := map[string]float64{
		"op_p90_us":                     windowed(u.op).Tail,
		"aux_p90_us":                    windowed(u.aux).Tail,
		"docserve.ops_applied":          float64(l.host.opsApplied),
		"docserve.fanout_frames_per_op": per(float64(l.host.fanoutFrames), l.ops),
		"docserve.checkpoints_per_op":   per(float64(l.host.checkpoints), l.ops),
		"docserve.transformed_away":     float64(l.host.transformedAway),
		"docserve.resyncs":              float64(max(0, int64(l.host.opResyncs+l.host.snapResyncs)-int64(l.attaches))),
		"docserve.kicks":                float64(l.host.kicks),
		"docserve.queue_depth_max":      float64(l.queueMax),
		"docserve.fanout_lag_avg_us":    per(durUs(l.lagSum), int(l.lagCount)),
		"docserve.fanout_lag_max_us":    durUs(l.lagMax),
		"docserve.snap_chunks":          float64(l.host.snapChunks),
		"client.edit_us":                sp["client.edit"].meanUs(),
		"client.pump_us":                per(durUs(l.pumpTime), l.pumps),
		"client.connect_ms":             mean(l.connectMs),
		"client.group_ops":              per(float64(l.ops), int(l.cliWrites)),
		"client.pending_max":            float64(l.pendingMax),
		"net.srv_write_us":              per(durUs(l.srvWriteTime), int(l.srvWrites)),
		"net.srv_writes_per_op":         per(float64(l.srvWrites), l.ops),
		"net.srv_bytes_per_op":          per(float64(l.srvBytes), l.ops),
		"net.cli_bytes_per_op":          per(float64(l.cliBytes), l.ops),
		"net.attach_bytes":              mean(l.attachBytes),
		"persist.load_ms":               mean(l.loadMs),
		"persist.append_us":             sp["persist.append"].meanUs(),
		"persist.fsync_us":              sp["persist.fsync"].meanUs(),
		"persist.fsyncs_per_op":         per(float64(l.jSyncs), l.ops),
		"persist.journal_bytes_per_op":  per(float64(l.jBytes), l.ops),
		"persist.encode_doc_ms":         mean(l.encodeDocMs),
		"ops.decode_ns":                 ns(l.decode),
		"ops.encode_ns":                 ns(l.encode),
		"ops.apply_ns":                  ns(l.apply),
		"ops.xform_ns":                  ns(l.xform),
		"datastream.escape_ns":          ns(l.escape),
		"datastream.decode_doc_ms":      mean(l.decodeDocMs),
		"text.edit_ns":                  per(float64(l.textEdit.Nanoseconds()), l.textEdits),
		"core.dispatch_us":              sp["core.dispatch"].meanUs(),
		"core.flush_us":                 sp["core.flush"].meanUs(),
		"core.drawables_per_key":        per(float64(l.drawables), l.keys),
		"wsys.pixels_per_key":           per(float64(l.pixels), l.keys),
		"go.allocs_per_op":              per(float64(u.cost.allocs), u.t.attempted),
		"go.alloc_bytes_per_op":         per(float64(u.cost.bytes), u.t.attempted),
		"go.gc_cycles":                  float64(u.cost.gcs),
		"go.gc_pause_ms":                msOf(u.cost.pause),
		"go.sched_latency_p50_us":       u.cost.schedP50Us(),
		"proc.cpu_util":                 perDur(u.cost.cpu, u.cost.wall),
		"proc.steal_pct":                u.cost.stealPct(),
	}
	if late := summarize(u.late); late.N > 0 {
		v["gen.late_p90_us"] = late.Tail
	}
	v["trace.overhead_pct.op_p50"] = pctChange(uo, to)
	v["trace.overhead_pct.aux_p50"] = pctChange(ua, ta)

	// Residue: the traced pass's end-to-end median minus the stage costs
	// along its blocking steps, both from the same pass so that drift
	// between the passes (reported as the overhead) does not land in it.
	// What the stages do not explain is itself a finding.
	var e2e, stages float64
	if name == "edit_local" {
		// A key blocks on its dispatch and then the update cycle.
		e2e = summarize(append(append([]float64(nil), t.op...), t.aux...)).P50
		stages = sp["core.dispatch"].p50Us() + sp["core.flush"].p50Us()
	} else {
		// One commit blocks on: the local edit call (op logging, group
		// encode, socket write), the host's decode, transform, apply,
		// journal append and amortized fsync, encode and escape of the
		// ack's frame, one server socket write (the ack), and the client's
		// pump that applies it.
		e2e = to
		stages = v["client.edit_us"] +
			(v["ops.decode_ns"]+v["ops.xform_ns"]+v["ops.apply_ns"]+v["ops.encode_ns"]+v["datastream.escape_ns"])/1000 +
			v["persist.append_us"]*per(float64(l.jWrites), l.ops) +
			v["persist.fsync_us"]*v["persist.fsyncs_per_op"] +
			v["net.srv_write_us"] + v["client.pump_us"]
	}
	if e2e > 0 {
		v["trace.residue_pct"] = (e2e - stages) / e2e * 100
	}
	fmt.Printf("residue %s: e2e p50 %.1fus, stages %.1fus, unexplained %.1fus\n", name, e2e, stages, e2e-stages)

	out := make([]named, 0, len(layerSpecs))
	for _, s := range layerSpecs {
		out = append(out, named{s.name, v[s.name], s.unit})
	}
	return out
}

// perDur is a/b for durations, 0 when b is.
func perDur(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
