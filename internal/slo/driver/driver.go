// Package driver drives a live docserve host with a configurable session
// mix and measures what the server delivered. It is the engine behind
// both cmd/loadgen (one open-ended run, JSONL samples to stdout) and the
// SLO fault-scenario harness in internal/slo (three phases, per-phase
// stats, session errors tolerated and healed by resume while faults are
// injected).
//
// The mix:
//
//   - writers commit random edits as fast as the rate cap and the ack
//     round-trip allow, measuring commit latency (edit applied locally to
//     ack received);
//   - readers hold live replicas and pump every committed op, measuring
//     delivery throughput;
//   - churners open a session, catch up to live, and disconnect, over and
//     over, measuring attach latency (the snapshot-serving path).
//
// With Options.Seed set, every writer's edit stream derives from
// Seed+index, so a scenario replays the same offered load run after run.
package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atk/internal/class"
	"atk/internal/docserve"
	"atk/internal/table"
	"atk/internal/text"
)

// Mix is the session mix one run drives.
type Mix struct {
	Writers  int
	Readers  int
	Churners int
	// TableWriters commit seeded cell edits (and the occasional structural
	// op) against the document's embedded table — the component-typed op
	// path. The first table writer embeds a table if the document has none.
	TableWriters int
	// Rate caps each writer's ops/second; 0 means ack-limited.
	Rate float64
}

// Options configure a Driver beyond the mix.
type Options struct {
	// Dial opens one connection to the server under test; role names the
	// session it serves ("w0", "r2", "probe", ...) so a fault injector can
	// discriminate. Required.
	Dial func(role string) (net.Conn, error)
	// Doc is the document name to drive. Required.
	Doc string
	// Registry builds the class registry each client decodes snapshots
	// with; nil gets a text-only registry.
	Registry func() (*class.Registry, error)
	// Seed makes the writers' edit streams deterministic (writer i uses
	// Seed+i); 0 seeds from the clock, loadgen's historical behavior.
	Seed int64
	// SampleEvery is the JSONL sample interval. Default 1s.
	SampleEvery time.Duration
	// Out receives one JSON sample object per interval plus a final
	// summary; nil emits nothing.
	Out io.Writer
	// Log receives human-readable progress and session errors.
	Log io.Writer
	// Tolerant keeps the fleet alive through session errors: a writer or
	// reader whose connection dies resumes (with backoff) instead of
	// exiting, and a churner retries. This is the fault-scenario mode —
	// the SLO question is precisely how well the system serves while its
	// sessions are being hurt.
	Tolerant bool
	// SyncTimeout bounds one writer commit round-trip. Default 10s.
	SyncTimeout time.Duration
	// IDPrefix namespaces client IDs on a shared server. Default "lg-".
	IDPrefix string
}

func (o Options) withDefaults() (Options, error) {
	if o.Dial == nil {
		return o, fmt.Errorf("driver: Dial is required")
	}
	if o.Doc == "" {
		return o, fmt.Errorf("driver: Doc is required")
	}
	if o.Registry == nil {
		o.Registry = func() (*class.Registry, error) {
			reg := class.NewRegistry()
			if err := text.Register(reg); err != nil {
				return nil, err
			}
			// Table is in the default set so table-writer mixes (and any
			// document that already embeds one) decode without wiring.
			if err := table.Register(reg); err != nil {
				return nil, err
			}
			return reg, nil
		}
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = time.Second
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.SyncTimeout <= 0 {
		o.SyncTimeout = 10 * time.Second
	}
	if o.IDPrefix == "" {
		o.IDPrefix = "lg-"
	}
	return o, nil
}

// Sample is one JSONL output line. Counters are cumulative for the run;
// latency percentiles cover the window since the previous sample. Every
// field is always emitted (no omitempty) — the schema is part of the
// loadgen contract — and TSUnixNano strictly increases sample to sample.
type Sample struct {
	Kind       string  `json:"kind"` // "sample" or "summary"
	Phase      string  `json:"phase"`
	TSUnixNano int64   `json:"ts_unix_ns"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Commits    uint64  `json:"commits"`
	Deliveries uint64  `json:"deliveries"`
	Attaches   uint64  `json:"attaches"`
	Errors     uint64  `json:"errors"`
	Resumes    uint64  `json:"resumes"`
	// Window (since the previous sample) latency percentiles, µs.
	CommitP50us int64 `json:"commit_p50_us"`
	CommitP99us int64 `json:"commit_p99_us"`
	AttachP50us int64 `json:"attach_p50_us"`
	AttachP99us int64 `json:"attach_p99_us"`
}

// PhaseStats summarize one phase: counter deltas since the phase began
// and latency percentiles over exactly the phase's observations.
type PhaseStats struct {
	Phase       string  `json:"phase"`
	DurationSec float64 `json:"duration_sec"`
	Commits     uint64  `json:"commits"`
	Deliveries  uint64  `json:"deliveries"`
	Attaches    uint64  `json:"attaches"`
	Errors      uint64  `json:"errors"`
	Resumes     uint64  `json:"resumes"`
	CommitP50us int64   `json:"commit_p50_us"`
	CommitP95us int64   `json:"commit_p95_us"`
	CommitP99us int64   `json:"commit_p99_us"`
	AttachP50us int64   `json:"attach_p50_us"`
	AttachP95us int64   `json:"attach_p95_us"`
	AttachP99us int64   `json:"attach_p99_us"`
}

// counters is a point-in-time snapshot of the cumulative counters.
type counters struct {
	commits, deliveries, attaches, errors, resumes uint64
}

// Driver runs one mix against one document.
type Driver struct {
	mix  Mix
	opts Options

	commits    atomic.Uint64
	deliveries atomic.Uint64
	attaches   atomic.Uint64
	tableOps   atomic.Uint64
	errCount   atomic.Uint64
	commitLat  latRec
	attachLat  latRec

	phaseMu    sync.Mutex
	phaseName  string
	phaseStart time.Time
	phaseBase  counters

	start   time.Time
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup

	clientMu sync.Mutex
	clients  []*docserve.Client // writers then readers; nil where dial never succeeded

	emitMu  sync.Mutex
	lastTS  int64
	emitErr error
}

// New validates the mix and options. Call Start to spawn the fleet.
func New(mix Mix, opts Options) (*Driver, error) {
	if mix.Writers <= 0 && mix.Readers <= 0 && mix.Churners <= 0 && mix.TableWriters <= 0 {
		return nil, fmt.Errorf("driver: empty mix: no writers, readers, or churners")
	}
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Driver{mix: mix, opts: o, stop: make(chan struct{})}, nil
}

// Start probes the target (fail fast on an unreachable server or unknown
// document) and spawns the fleet plus the sampler. The initial phase is
// named "run".
func (d *Driver) Start() error {
	probe, err := d.connect("probe")
	if err != nil {
		return err
	}
	_ = probe.Close()

	d.start = time.Now()
	d.phaseName, d.phaseStart = "run", d.start
	d.clients = make([]*docserve.Client, d.mix.Writers+d.mix.TableWriters+d.mix.Readers)

	for i := 0; i < d.mix.Writers; i++ {
		d.wg.Add(1)
		go d.writerLoop(i)
	}
	for i := 0; i < d.mix.TableWriters; i++ {
		d.wg.Add(1)
		go d.tableWriterLoop(i)
	}
	for i := 0; i < d.mix.Readers; i++ {
		d.wg.Add(1)
		go d.readerLoop(i)
	}
	for i := 0; i < d.mix.Churners; i++ {
		d.wg.Add(1)
		go d.churnLoop(i)
	}
	if d.opts.Out != nil {
		d.wg.Add(1)
		go d.sampleLoop()
	}
	fmt.Fprintf(d.opts.Log, "driver: driving %s: %d writers, %d table writers, %d readers, %d churners\n",
		d.opts.Doc, d.mix.Writers, d.mix.TableWriters, d.mix.Readers, d.mix.Churners)
	return nil
}

// BeginPhase names the current measurement window: subsequent samples
// carry the label, and the next EndPhase reports deltas from this point.
func (d *Driver) BeginPhase(name string) {
	d.phaseMu.Lock()
	defer d.phaseMu.Unlock()
	d.phaseName = name
	d.phaseStart = time.Now()
	d.phaseBase = d.snapshot()
	d.commitLat.resetPhase()
	d.attachLat.resetPhase()
}

// EndPhase closes the current window and returns its stats.
func (d *Driver) EndPhase() PhaseStats {
	d.phaseMu.Lock()
	defer d.phaseMu.Unlock()
	now := d.snapshot()
	cw := d.commitLat.phase()
	aw := d.attachLat.phase()
	return PhaseStats{
		Phase:       d.phaseName,
		DurationSec: time.Since(d.phaseStart).Seconds(),
		Commits:     now.commits - d.phaseBase.commits,
		Deliveries:  now.deliveries - d.phaseBase.deliveries,
		Attaches:    now.attaches - d.phaseBase.attaches,
		Errors:      now.errors - d.phaseBase.errors,
		Resumes:     now.resumes - d.phaseBase.resumes,
		CommitP50us: pctUS(cw, 50),
		CommitP95us: pctUS(cw, 95),
		CommitP99us: pctUS(cw, 99),
		AttachP50us: pctUS(aw, 50),
		AttachP95us: pctUS(aw, 95),
		AttachP99us: pctUS(aw, 99),
	}
}

func (d *Driver) snapshot() counters {
	return counters{
		commits:    d.commits.Load(),
		deliveries: d.deliveries.Load(),
		attaches:   d.attaches.Load(),
		errors:     d.errCount.Load(),
		resumes:    d.Resumes(),
	}
}

// Errors returns the cumulative session error count.
func (d *Driver) Errors() uint64 { return d.errCount.Load() }

// Resumes returns how many successful session resumes healed a fault,
// summed from the clients' own reconnect counters — tolerant mode rides
// the Client's built-in supervisor, so the clients are the ledger.
func (d *Driver) Resumes() uint64 {
	d.clientMu.Lock()
	defer d.clientMu.Unlock()
	var n uint64
	for _, c := range d.clients {
		if c != nil {
			n += c.Reconnects()
		}
	}
	return n
}

// Stop halts the fleet and joins every goroutine, emits the final
// summary sample, and returns any sample-write error. The writers' and
// readers' clients stay open (ownership passes to the caller — use
// Clients/CloseAll) so a convergence check can interrogate the replicas.
func (d *Driver) Stop() error {
	d.phaseMu.Lock()
	if !d.stopped {
		d.stopped = true
		close(d.stop)
	}
	d.phaseMu.Unlock()
	d.wg.Wait()
	if d.opts.Out != nil {
		d.emit("summary")
	}
	fmt.Fprintf(d.opts.Log, "driver: done: %d commits, %d deliveries, %d attaches, %d resumes, %d errors\n",
		d.commits.Load(), d.deliveries.Load(), d.attaches.Load(), d.Resumes(), d.errCount.Load())
	d.emitMu.Lock()
	defer d.emitMu.Unlock()
	return d.emitErr
}

// Clients returns the writer and reader clients that are still alive
// (dialed successfully and carry no latched error). Only valid after
// Stop: until then the session goroutines own them.
func (d *Driver) Clients() []*docserve.Client {
	d.clientMu.Lock()
	defer d.clientMu.Unlock()
	var out []*docserve.Client
	for _, c := range d.clients {
		if c != nil && c.Err() == nil {
			out = append(out, c)
		}
	}
	return out
}

// CloseAll closes every client the fleet still holds. Only valid after
// Stop.
func (d *Driver) CloseAll() {
	d.clientMu.Lock()
	defer d.clientMu.Unlock()
	for _, c := range d.clients {
		if c != nil {
			_ = c.Close()
		}
	}
}

// Run is the loadgen entry point: Start, run for duration, Stop, close
// everything, and report an error if any session errored (a fault-free
// run should be clean end to end).
func Run(mix Mix, opts Options, duration time.Duration) error {
	d, err := New(mix, opts)
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	select {
	case <-time.After(duration):
	case <-d.stop:
	}
	err = d.Stop()
	d.CloseAll()
	if err != nil {
		return err
	}
	if e := d.errCount.Load(); e > 0 {
		return fmt.Errorf("driver: %d session errors (see log)", e)
	}
	return nil
}

func (d *Driver) noteErr(who string, err error) {
	d.errCount.Add(1)
	select {
	case <-d.stop: // shutdown races are not errors worth logging
	default:
		fmt.Fprintf(d.opts.Log, "driver: %s: %v\n", who, err)
	}
}

func (d *Driver) stopping() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// backoff sleeps briefly between tolerant retries, stop-aware.
func (d *Driver) backoff() bool {
	select {
	case <-d.stop:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

// connect dials and attaches one client.
func (d *Driver) connect(role string, extra ...func(*docserve.ClientOptions)) (*docserve.Client, error) {
	reg, err := d.opts.Registry()
	if err != nil {
		return nil, err
	}
	conn, err := d.opts.Dial(role)
	if err != nil {
		return nil, err
	}
	co := docserve.ClientOptions{ClientID: d.opts.IDPrefix + role, Registry: reg}
	for _, f := range extra {
		f(&co)
	}
	c, err := docserve.Connect(conn, d.opts.Doc, co)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// connectRetry dials until it succeeds, the driver stops, or (not
// tolerant) the first failure.
func (d *Driver) connectRetry(role string, extra ...func(*docserve.ClientOptions)) *docserve.Client {
	for {
		c, err := d.connect(role, extra...)
		if err == nil {
			return c
		}
		d.noteErr(role, err)
		if !d.opts.Tolerant || !d.backoff() {
			return nil
		}
	}
}

// healOpts wires the Client's built-in self-healing for tolerant runs:
// product and harness exercise one reconnect code path (the supervisor in
// internal/docserve, the same one ez ships with), with a fast seeded
// schedule so scenarios replay deterministically.
func (d *Driver) healOpts(slot int, role string) func(*docserve.ClientOptions) {
	return func(co *docserve.ClientOptions) {
		if !d.opts.Tolerant {
			return
		}
		co.Dial = func() (net.Conn, error) { return d.opts.Dial(role) }
		co.BackoffBase = 5 * time.Millisecond
		co.BackoffCap = 250 * time.Millisecond
		if d.opts.Seed != 0 {
			co.BackoffSeed = d.opts.Seed + 7777 + int64(slot)
		}
	}
}

func (d *Driver) setClient(slot int, c *docserve.Client) {
	d.clientMu.Lock()
	d.clients[slot] = c
	d.clientMu.Unlock()
}

func (d *Driver) writerLoop(i int) {
	defer d.wg.Done()
	role := fmt.Sprintf("w%d", i)
	c := d.connectRetry(role, d.healOpts(i, role))
	if c == nil {
		return
	}
	d.setClient(i, c)
	seed := d.opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed + int64(i)))
	var tick <-chan time.Time
	if d.mix.Rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / d.mix.Rate))
		defer t.Stop()
		tick = t.C
	}
	words := []string{"load ", "gen ", "x", "line\n", "ω€"}
	for {
		if d.stopping() {
			d.writerDrain(c, role)
			return
		}
		if tick != nil {
			select {
			case <-tick:
			case <-d.stop:
				d.writerDrain(c, role)
				return
			}
		}
		doc := c.Doc()
		start := time.Now()
		var eerr error
		if n := doc.Len(); n > 4096 && rng.Intn(2) == 0 {
			// Keep the document from growing without bound.
			eerr = doc.Delete(rng.Intn(n-64), 64)
		} else {
			eerr = doc.Insert(rng.Intn(doc.Len()+1), words[rng.Intn(len(words))])
		}
		if eerr == nil {
			eerr = c.Sync(d.opts.SyncTimeout)
		}
		if eerr != nil {
			// With tolerant healing the client resumes itself inside
			// Sync/Pump; a latched error is a protocol failure.
			d.noteErr(role, eerr)
			if !d.opts.Tolerant || c.Err() != nil || !d.backoff() {
				return
			}
			continue
		}
		d.commitLat.add(time.Since(start))
		d.commits.Add(1)
	}
}

// tableWriterLoop drives the component-typed op path: seeded cell edits
// (and the occasional structural op) against the document's embedded
// table, one committed group per edit, measured like text commits.
func (d *Driver) tableWriterLoop(i int) {
	defer d.wg.Done()
	role := fmt.Sprintf("tw%d", i)
	slot := d.mix.Writers + i
	c := d.connectRetry(role, d.healOpts(slot, role))
	if c == nil {
		return
	}
	d.setClient(slot, c)
	seed := d.opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed + 500 + int64(i)))
	td, err := d.findOrEmbedTable(c)
	if err != nil {
		d.noteErr(role, err)
		return
	}
	var tick <-chan time.Time
	if d.mix.Rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / d.mix.Rate))
		defer t.Stop()
		tick = t.C
	}
	for {
		if d.stopping() {
			d.writerDrain(c, role)
			return
		}
		if tick != nil {
			select {
			case <-tick:
			case <-d.stop:
				d.writerDrain(c, role)
				return
			}
		}
		start := time.Now()
		// A concurrent text delete can swallow the table's anchor; edits
		// to the orphaned component stop replicating, so find (or embed)
		// a live one before editing.
		if !tableEmbedded(c, td) {
			var ferr error
			if td, ferr = d.findOrEmbedTable(c); ferr != nil {
				d.noteErr(role, ferr)
				if !d.opts.Tolerant || c.Err() != nil || !d.backoff() {
					return
				}
				continue
			}
		}
		eerr := d.tableEdit(rng, td)
		if eerr == nil {
			eerr = c.Sync(d.opts.SyncTimeout)
		}
		if eerr != nil {
			d.noteErr(role, eerr)
			if !d.opts.Tolerant || c.Err() != nil || !d.backoff() {
				return
			}
			continue
		}
		d.commitLat.add(time.Since(start))
		d.commits.Add(1)
		d.tableOps.Add(1)
	}
}

// tableEmbedded reports whether td is still one of the document's live
// embedded components.
func tableEmbedded(c *docserve.Client, td *table.Data) bool {
	for _, e := range c.Doc().Embeds() {
		if e.Obj == td {
			return true
		}
	}
	return false
}

// findOrEmbedTable returns the replica's embedded table, embedding a
// fresh 4x4 at position 0 when the document has none yet. (Concurrent
// first writers may each embed one; every writer edits the table it
// found or made, and the transform keeps all replicas identical.)
func (d *Driver) findOrEmbedTable(c *docserve.Client) (*table.Data, error) {
	for _, e := range c.Doc().Embeds() {
		if td, ok := e.Obj.(*table.Data); ok {
			return td, nil
		}
	}
	td := table.New(4, 4)
	if err := c.Embed(0, td, ""); err != nil {
		return nil, err
	}
	if err := c.Sync(d.opts.SyncTimeout); err != nil {
		return nil, err
	}
	return td, nil
}

// tableEdit makes one seeded mutation: mostly cell-sets, occasionally a
// structural op, with the grid held to a bounded size.
func (d *Driver) tableEdit(rng *rand.Rand, td *table.Data) error {
	rows, cols := td.Dims()
	if rows == 0 || cols == 0 {
		return td.InsertRows(0, 1)
	}
	switch r := rng.Intn(16); {
	case r == 0 && rows < 16:
		return td.InsertRows(rng.Intn(rows+1), 1)
	case r == 1 && rows > 4:
		return td.DeleteRows(rng.Intn(rows), 1)
	case r == 2 && cols < 16:
		return td.InsertCols(rng.Intn(cols+1), 1)
	case r == 3 && cols > 4:
		return td.DeleteCols(rng.Intn(cols), 1)
	case r < 10:
		return td.SetNumber(rng.Intn(rows), rng.Intn(cols), float64(rng.Intn(10000)))
	default:
		return td.SetText(rng.Intn(rows), rng.Intn(cols), fmt.Sprintf("cell-%d", rng.Intn(1000)))
	}
}

// TableOps returns how many table-op commits the table writers landed.
func (d *Driver) TableOps() uint64 { return d.tableOps.Load() }

// Resets sums the clients' reset counters — local mutations the op model
// could not express. A healthy component-typed run holds this at zero.
func (d *Driver) Resets() uint64 {
	d.clientMu.Lock()
	defer d.clientMu.Unlock()
	var n uint64
	for _, c := range d.clients {
		if c != nil {
			n += uint64(c.Resets)
		}
	}
	return n
}

// writerDrain gives a stopping writer one chance to commit edits still
// pending on a live connection, so quiescence after Stop is real: every
// surviving replica's edits are either committed or bound to a dead
// client the convergence check excludes.
func (d *Driver) writerDrain(c *docserve.Client, role string) {
	if c.Err() == nil && c.PendingCount() > 0 {
		if err := c.Sync(d.opts.SyncTimeout); err != nil {
			d.noteErr(role+" drain", err)
		}
	}
}

func (d *Driver) readerLoop(i int) {
	defer d.wg.Done()
	role := fmt.Sprintf("r%d", i)
	slot := d.mix.Writers + d.mix.TableWriters + i
	c := d.connectRetry(role, d.healOpts(slot, role), func(co *docserve.ClientOptions) {
		co.OnRemoteOp = func(uint64) { d.deliveries.Add(1) }
	})
	if c == nil {
		return
	}
	d.setClient(slot, c)
	for {
		if d.stopping() {
			return
		}
		if err := c.PumpWait(100 * time.Millisecond); err != nil {
			d.noteErr(role, err)
			if !d.opts.Tolerant || c.Err() != nil || !d.backoff() {
				return
			}
		}
	}
}

func (d *Driver) churnLoop(i int) {
	defer d.wg.Done()
	for n := 0; ; n++ {
		if d.stopping() {
			return
		}
		// A fresh identity every attach exercises the cold snapshot path
		// the way new joiners do.
		role := fmt.Sprintf("c%d-%d", i, n)
		start := time.Now()
		c, err := d.connect(role)
		if err != nil {
			d.noteErr(role, err)
			if !d.opts.Tolerant || !d.backoff() {
				return
			}
			continue
		}
		d.attachLat.add(time.Since(start))
		d.attaches.Add(1)
		_ = c.Close()
	}
}

func (d *Driver) sampleLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.opts.SampleEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			d.emit("sample")
		case <-d.stop:
			return
		}
	}
}

// emit writes one JSONL sample; timestamps are forced strictly monotonic
// even if the wall clock stalls between ticks.
func (d *Driver) emit(kind string) {
	d.phaseMu.Lock()
	phase := d.phaseName
	d.phaseMu.Unlock()
	cw := d.commitLat.window()
	aw := d.attachLat.window()
	now := d.snapshot()
	d.emitMu.Lock()
	defer d.emitMu.Unlock()
	ts := time.Now().UnixNano()
	if ts <= d.lastTS {
		ts = d.lastTS + 1
	}
	d.lastTS = ts
	rec := Sample{
		Kind:        kind,
		Phase:       phase,
		TSUnixNano:  ts,
		ElapsedSec:  time.Since(d.start).Seconds(),
		Commits:     now.commits,
		Deliveries:  now.deliveries,
		Attaches:    now.attaches,
		Errors:      now.errors,
		Resumes:     now.resumes,
		CommitP50us: pctUS(cw, 50),
		CommitP99us: pctUS(cw, 99),
		AttachP50us: pctUS(aw, 50),
		AttachP99us: pctUS(aw, 99),
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = fmt.Fprintf(d.opts.Out, "%s\n", b)
	}
	if err != nil && d.emitErr == nil {
		d.emitErr = err
	}
}

// latRec collects latency observations for two overlapping windows: the
// per-sample window (drained by window) and the per-phase window (reset
// by resetPhase, read by phase).
type latRec struct {
	mu          sync.Mutex
	obs         []time.Duration
	sampleStart int
}

func (l *latRec) add(d time.Duration) {
	l.mu.Lock()
	l.obs = append(l.obs, d)
	l.mu.Unlock()
}

// window returns a copy of the observations since the previous window
// call and advances the drain point.
func (l *latRec) window() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := append([]time.Duration(nil), l.obs[l.sampleStart:]...)
	l.sampleStart = len(l.obs)
	return w
}

// phase returns a copy of every observation since the last resetPhase.
func (l *latRec) phase() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.obs...)
}

func (l *latRec) resetPhase() {
	l.mu.Lock()
	l.obs = l.obs[:0]
	l.sampleStart = 0
	l.mu.Unlock()
}

// pctUS returns the p-th percentile of obs in microseconds, 0 if empty.
// obs is sorted in place (callers pass copies).
func pctUS(obs []time.Duration, p int) int64 {
	if len(obs) == 0 {
		return 0
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i] < obs[j] })
	idx := len(obs) * p / 100
	if idx >= len(obs) {
		idx = len(obs) - 1
	}
	return obs[idx].Microseconds()
}
