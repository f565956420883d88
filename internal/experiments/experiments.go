// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the NVP simulator. Each FigNN/TableN function sweeps
// the same workloads, power traces, and parameters as the paper and returns
// a typed result that renders the same rows or series the paper reports.
//
// The experiment index lives in DESIGN.md; measured-vs-paper values in
// EXPERIMENTS.md. cmd/experiments drives everything from the command line.
package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

// Options controls the sweep size shared by every experiment.
type Options struct {
	// Scale multiplies each workload's instruction count; 1.0 reproduces
	// the full-length runs, tests use small values. <= 0 means 1.0.
	Scale float64
	// Apps restricts the workload list; nil means all 20.
	Apps []string
	// TraceSeed seeds the synthetic power traces (default 1). Every
	// configuration within one experiment replays the identical trace, so
	// the seed only selects which input-energy recording is used.
	TraceSeed uint64
	// Parallelism bounds concurrent simulations (default NumCPU).
	Parallelism int
	// Workloads supplies memoized access streams; nil means the shared
	// process-wide store. Every configuration of a sweep replays the same
	// generated-once stream instead of regenerating it per job.
	Workloads *workload.Store
	// Tracer, when non-nil, streams every run's event log. One tracer
	// carries one run's cycle clock, so tracing forces Parallelism to 1:
	// runs are serialized rather than interleaving their clocks. For a
	// traced sweep that keeps its parallelism, use Cells instead.
	Tracer *trace.Tracer
	// Cells, when non-nil, gives every sweep cell its own JSONL trace file
	// with a deterministic name (see CellTracing). Per-cell tracers have
	// independent clocks, so this composes with Parallelism; it overrides
	// Tracer for the simulations themselves.
	Cells *CellTracing
	// Progress, when non-nil, is bumped as cells enqueue and complete, for
	// live sweep telemetry (cmd/experiments -listen).
	Progress *Progress
	// Metrics, when non-nil, accumulates named counters across every run
	// of the sweep (the dump then decomposes the whole sweep).
	Metrics *trace.Registry
	// Paranoid runs every simulation with the runtime invariant checker
	// (nvp.Config.Paranoid) and fails a run whose report is not clean —
	// structured diagnostics instead of a silently corrupted sweep. The
	// failure is marked transient, so a supervisor with retries re-runs the
	// flagged cell before giving up.
	Paranoid bool
	// Ctx, when non-nil, is the graceful-drain context: once cancelled
	// (SIGINT/SIGTERM in cmd/experiments) no further cells are dispatched,
	// in-flight cells finish and are journaled, and the sweep reports
	// harness.ErrInterrupted. The context is deliberately NOT passed to the
	// simulations themselves — an interrupt never discards work in flight.
	Ctx context.Context
	// Sup, when non-nil, supervises every cell: durable journaling, replay
	// on resume, bounded retries with deterministic backoff, a wall-clock
	// backstop, and panic isolation. One Supervisor is shared across every
	// experiment of a command invocation. Nil runs cells bare (but still
	// panic-isolated by the zero supervisor).
	//
	// Cell identities hash the effective nvp.Config; caller-installed
	// prefetcher factories contribute their declared
	// IPrefetcherID/DPrefetcherID names. A factory installed without an
	// ID has no stable identity, so its cells are never journaled or
	// replayed — they simulate every time.
	Sup *harness.Supervisor
	// CellBudget, when > 0, clamps every cell's nvp.Config.MaxCycles to at
	// most this many simulated cycles — the deterministic per-cell
	// deadline. A cell that exceeds it truncates (Completed=false) inside
	// simulated time, identically on every machine; the supervisor's
	// wall-clock watchdog is only the backstop behind it.
	CellBudget uint64
	// RemoteEncode, when non-nil, derives each cell's declarative /v1/run
	// body (or nil when the cell is not expressible remotely); the result
	// rides on harness.Cell.RemoteReq for Sup.Remote to execute on an ipexd
	// fleet. Injected as a function (remote.EncodeCell) rather than imported
	// so experiments does not depend on the remote package.
	RemoteEncode RemoteEncoder
}

// RemoteEncoder derives the declarative remote-execution request for one
// sweep cell, or nil when the cell must run locally. The signature matches
// remote.EncodeCell.
type RemoteEncoder func(app string, scale float64, tr *power.Trace, traceSeed uint64, cfg nvp.Config, key string) []byte

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Apps) == 0 {
		o.Apps = workload.Names()
	}
	if o.TraceSeed == 0 {
		o.TraceSeed = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Tracer != nil {
		o.Parallelism = 1
	}
	if o.Workloads == nil {
		o.Workloads = workload.Shared()
	}
	return o
}

// trace returns the sweep's shared power trace for a source: every
// experiment of a sweep replays one instance per (source, TraceSeed).
func (o Options) trace(src power.Source) *power.Trace {
	return power.Shared(src, o.TraceSeed)
}

// job is one simulation request. where, when set, names the job's
// configuration in the error its failure aborts the experiment with.
type job struct {
	app   string
	cfg   nvp.Config
	tr    *power.Trace
	where string
}

// effective derives the result-affecting config of one job: the sweep-level
// paranoid flag and the deterministic per-cell cycle deadline applied, but
// no observer attachments (those are added per run and excluded from the
// cell's journal identity).
func (o Options) effective(cfg nvp.Config) nvp.Config {
	if o.Paranoid {
		cfg.Paranoid = true
	}
	if o.CellBudget > 0 && (cfg.MaxCycles == 0 || cfg.MaxCycles > o.CellBudget) {
		cfg.MaxCycles = o.CellBudget
	}
	return cfg
}

// runAll executes jobs on the crash-safe harness pool, preserving order.
// Every job becomes a supervised cell: journaled when Options.Sup carries a
// journal, replayed instead of re-simulated on resume, retried on transient
// failures, and panic-isolated (a panicking cell soft-fails into the
// skipped-app path instead of taking the sweep down). Cancellation of
// Options.Ctx drains gracefully — in-flight cells complete — and surfaces
// as a harness.ErrInterrupted-wrapped error. A cell error drains the batch
// the same way and is returned in place of the interruption.
func runAll(o Options, jobs []job) ([]nvp.Result, error) {
	store := o.Workloads
	if store == nil {
		store = workload.Shared()
	}
	o.Progress.addTotal(uint64(len(jobs)))
	// Per-cell trace paths are reserved here, in enqueue order, so the file
	// names are deterministic however the workers get scheduled. Creation
	// is deferred to the cell body: a replayed cell simulates nothing and
	// therefore writes no trace file.
	var cellPaths []string
	if o.Cells != nil {
		cellPaths = make([]string, len(jobs))
		for i, j := range jobs {
			cellPaths[i] = o.Cells.reserve(j.app)
		}
	}
	// A run with an observer attached must simulate even when an earlier
	// cell of the sweep already journaled its key, so that traces and
	// metrics match those of an unjournaled sweep.
	observed := o.Tracer != nil || o.Cells != nil || o.Metrics != nil
	// A remote request is encoded once per key and shared by the key's
	// copies, and only for a key that will reach RunRemote: a Settled key
	// is answered from the journal or the memo. Observed cells always run,
	// so they are always encoded.
	var reqs map[string][]byte
	if o.RemoteEncode != nil {
		reqs = make(map[string][]byte)
	}
	cells := make([]harness.Cell, len(jobs))
	for i := range jobs {
		j := jobs[i]
		cfg := o.effective(j.cfg)
		var path string
		if cellPaths != nil {
			path = cellPaths[i]
		}
		cells[i] = harness.Cell{
			Key:      cellKey(o, j, cfg),
			Label:    j.app,
			Run:      o.cellRun(store, j, cfg, path),
			Observed: observed,
		}
		if key := cells[i].Key; reqs != nil && key != "" && (observed || !o.Sup.Settled(key)) {
			req, ok := reqs[key]
			if !ok {
				req = o.RemoteEncode(j.app, o.Scale, j.tr, o.TraceSeed, cfg, key)
				reqs[key] = req
			}
			cells[i].RemoteReq = req
		}
	}
	// The first failed cell aborts the experiment, so it stops dispatch of
	// the rest of the batch: an unrecoverable error costs a few cells, not
	// every configuration of the experiment.
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	var failed atomic.Bool
	pool := &harness.Pool{
		Workers: o.Parallelism,
		Ctx:     ctx,
		Sup:     o.Sup,
		OnDone: func(_ int, res nvp.Result, err error, _ bool) {
			o.Progress.jobDone(res.Insts)
			if err != nil {
				failed.Store(true)
				abort()
			}
		},
	}
	results, errs, interrupted := pool.Run(cells)
	if interrupted != nil && !failed.Load() {
		return nil, interrupted
	}
	for i, err := range errs {
		if err != nil {
			if w := jobs[i].where; w != "" {
				return nil, fmt.Errorf("%s: %w", w, err)
			}
			return nil, err
		}
	}
	return results, nil
}

// testCellHook, when non-nil, runs inside every cell body just before the
// simulation (after the cell's trace file, if any, is created). It exists so
// in-package tests can inject a per-cell panic and cover the isolation path
// end to end; production code never sets it.
var testCellHook func(app string)

// cellRun builds the supervised body of one sweep cell. The context it
// receives is the supervisor's wall-clock backstop (nil when unarmed) —
// never the sweep's drain context — threaded into nvp.RunContext so a
// wedged cell stops at its next power-cycle boundary. The cell simulates
// straight off the store's shared immutable trace arena through the
// worker's nvp.Arena, so a steady-state cell neither copies the workload
// nor allocates simulation state.
func (o Options) cellRun(store *workload.Store, j job, cfg nvp.Config, cellPath string) func(context.Context, *nvp.Arena) (nvp.Result, error) {
	return func(ctx context.Context, a *nvp.Arena) (res nvp.Result, err error) {
		st, err := store.Stream(j.app, o.Scale)
		if err != nil {
			return nvp.Result{}, err
		}
		if a == nil {
			a = nvp.NewArena()
		}
		cfg.Tracer = o.Tracer
		cfg.Metrics = o.Metrics
		if cellPath != "" {
			f, ferr := os.Create(cellPath)
			if ferr != nil {
				return nvp.Result{}, ferr
			}
			tr := trace.NewJSONL(f)
			cfg.Tracer = tr
			// The trace file must never outlive a failed cell half-written:
			// on success it is flushed, closed, and counted; on error it is
			// closed and removed; on panic it is removed and the panic is
			// re-raised for the supervisor to isolate and journal.
			defer func() {
				if p := recover(); p != nil {
					f.Close()
					os.Remove(cellPath)
					panic(p)
				}
				if err == nil {
					err = tr.Flush()
				}
				if cerr := f.Close(); cerr != nil && err == nil {
					err = fmt.Errorf("experiments: closing %s: %w", cellPath, cerr)
				}
				if err != nil {
					os.Remove(cellPath)
					return
				}
				o.Cells.wrote()
			}()
		}
		if testCellHook != nil {
			testCellHook(j.app)
		}
		res, err = a.RunStreamContext(ctx, st, j.tr, cfg)
		if err == nil && cfg.Paranoid && !res.Invariants.Clean() {
			// Flagged runs are worth one more try (bounded by the
			// supervisor's MaxRetries) before the sweep aborts.
			err = harness.Transient(fmt.Errorf("experiments: %s: %s", j.app, res.Invariants.Summary()))
		}
		return res, err
	}
}

// point is one configuration of an experiment, run over every app. label,
// when set, names it in the error a failed cell aborts the experiment with.
type point struct {
	label string
	cfg   nvp.Config
	tr    *power.Trace
}

// runConfigs runs every point over every app as one pool batch — one remote
// prefetch and one end-of-batch barrier per experiment — and returns one
// app-ordered result slice per point. A labelled point's cell error reads
// "title [label]: ...".
func runConfigs(o Options, title string, pts []point) ([][]nvp.Result, error) {
	jobs := make([]job, 0, len(pts)*len(o.Apps))
	for _, pt := range pts {
		var where string
		if pt.label != "" {
			where = fmt.Sprintf("%s [%s]", title, pt.label)
		}
		for _, app := range o.Apps {
			jobs = append(jobs, job{app: app, cfg: pt.cfg, tr: pt.tr, where: where})
		}
	}
	rs, err := runAll(o, jobs)
	if err != nil {
		return nil, err
	}
	n := len(o.Apps)
	sets := make([][]nvp.Result, len(pts))
	for i := range pts {
		sets[i] = rs[i*n : (i+1)*n : (i+1)*n]
	}
	return sets, nil
}

// speedups returns base[i].Cycles / variant[i].Cycles per app.
func speedups(base, variant []nvp.Result) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		out[i] = float64(base[i].Cycles) / float64(variant[i].Cycles)
	}
	return out
}

// filterComplete drops every app whose run hit the cycle budget in ANY of
// the aligned result sets: timing comparisons of truncated runs are
// meaningless, but one starved workload must not abort a whole sweep. It
// returns the surviving apps, the correspondingly filtered sets, and the
// names that were dropped (for the experiment's failure summary). Only a
// sweep with NO surviving app is an error.
func filterComplete(apps []string, sets ...[]nvp.Result) (kept []string, filtered [][]nvp.Result, skipped []string, err error) {
	bad := make([]bool, len(apps))
	for _, rs := range sets {
		for i := range rs {
			if !rs[i].Completed {
				bad[i] = true
			}
		}
	}
	kept = make([]string, 0, len(apps))
	filtered = make([][]nvp.Result, len(sets))
	for i, app := range apps {
		if bad[i] {
			skipped = append(skipped, app)
			continue
		}
		kept = append(kept, app)
		for s := range sets {
			filtered[s] = append(filtered[s], sets[s][i])
		}
	}
	if len(kept) == 0 {
		return nil, nil, skipped, fmt.Errorf("experiments: no workload completed within the cycle budget (weak trace or tiny MaxCycles); skipped: %s",
			strings.Join(skipped, ", "))
	}
	return kept, filtered, skipped, nil
}

// skippedNote renders the per-experiment failure summary appended to its
// String() output; empty when every app completed.
func skippedNote(skipped []string) string {
	if len(skipped) == 0 {
		return ""
	}
	return fmt.Sprintf("\n(skipped %d app(s), cycle budget exhausted: %s)",
		len(skipped), strings.Join(skipped, ", "))
}

// mergeSkipped accumulates unique skipped-app names across sweep points,
// preserving first-seen order.
func mergeSkipped(acc, more []string) []string {
	for _, app := range more {
		seen := false
		for _, a := range acc {
			if a == app {
				seen = true
				break
			}
		}
		if !seen {
			acc = append(acc, app)
		}
	}
	return acc
}
