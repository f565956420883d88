// Command experiments regenerates the paper's evaluation: every figure and
// table of §6 plus the DESIGN.md ablations.
//
//	experiments -all             # everything (full workload lengths)
//	experiments -exp fig10       # one experiment
//	experiments -all -scale 0.1  # quick pass at 10% workload length
//	experiments -list            # show available experiment ids
//
// Output is the textual form of each figure's series / table's rows;
// EXPERIMENTS.md records these next to the paper's published values.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ipex/cmd/internal/httpd"
	"ipex/internal/benchio"
	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/remote"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

type runner func(experiments.Options) (fmt.Stringer, error)

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func wrap[T fmt.Stringer](f func(experiments.Options) (T, error)) runner {
	return func(o experiments.Options) (fmt.Stringer, error) {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

var registry = map[string]runner{
	"fig01":  wrap(experiments.Fig01),
	"fig02":  wrap(experiments.Fig02),
	"fig04":  wrap(experiments.Fig04),
	"fig10":  wrap(experiments.Fig10),
	"fig11":  wrap(experiments.Fig11),
	"fig12":  wrap(experiments.Fig12),
	"fig13":  wrap(experiments.Fig13),
	"fig14":  wrap(experiments.Fig14),
	"fig15":  wrap(experiments.Fig15),
	"table2": wrap(experiments.Table2),
	"table3": wrap(experiments.Table3),
	"table4": wrap(experiments.Table4),
	"fig16":  wrap(experiments.Fig16),
	"fig17":  wrap(experiments.Fig17),
	"fig18":  wrap(experiments.Fig18),
	"fig19":  wrap(experiments.Fig19),
	"fig20":  wrap(experiments.Fig20),
	"fig21":  wrap(experiments.Fig21),
	"fig22":  wrap(experiments.Fig22),
	"fig23":  wrap(experiments.Fig23),
	"fig24":  wrap(experiments.Fig24),
	"fig25":  wrap(experiments.Fig25),

	"robust-sensor": wrap(experiments.RobustSensor),
	"robust-ckpt":   wrap(experiments.RobustCkpt),

	"ablation-degree":   wrap(experiments.AblationDegreePolicy),
	"ablation-adaptive": wrap(experiments.AblationAdaptive),
	"ablation-dup":      wrap(experiments.AblationDupSuppress),
	"ablation-dest":     wrap(experiments.AblationPrefetchDest),
	"ext-reissue":       wrap(experiments.AblationReissue),
	"ext-addrgen":       wrap(experiments.AblationAddressGen),
}

// order fixes the -all sequence to the paper's presentation order.
var order = []string{
	"fig01", "fig02", "fig04",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"table2", "table3", "table4",
	"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
	"fig24", "fig25",
	"robust-sensor", "robust-ckpt",
	"ablation-degree", "ablation-adaptive", "ablation-dup", "ablation-dest",
	"ext-reissue", "ext-addrgen",
}

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		exp      = flag.String("exp", "", "run one experiment (see -list)")
		list     = flag.Bool("list", false, "list experiment ids")
		scale    = flag.Float64("scale", 1.0, "workload length multiplier")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of tables")
		apps     = flag.String("apps", "", "comma-separated app subset (default all 20)")
		seed     = flag.Uint64("seed", 1, "power-trace seed")
		parallel = flag.Int("parallelism", 0, "max concurrent simulations (0 = NumCPU; tracing forces 1)")
		paranoid = flag.Bool("paranoid", false, "run every simulation with the runtime invariant checker; a dirty report fails the run")

		tracePath  = flag.String("trace", "", "stream a JSONL event trace of every run to this file (serializes the sweep)")
		traceDir   = flag.String("tracedir", "", "write one JSONL trace file per sweep cell into this directory (keeps -parallelism; analyze with tracestat)")
		metricsOut = flag.String("metrics", "", "write an aggregate JSON metrics dump of the sweep to this file")
		listenAddr = flag.String("listen", "", "serve live sweep telemetry on this address (Prometheus text on /metrics, expvar on /debug/vars), e.g. :9090")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		journalPath = flag.String("journal", "", "journal every completed sweep cell to this JSONL file; an interrupted sweep resumes with -resume")
		resume      = flag.Bool("resume", false, "resume the -journal file: journaled cells replay bit-identically instead of re-simulating")
		maxRetries  = flag.Int("max-retries", 0, "re-run a cell up to N times after a transient failure (paranoid-flagged or timed-out run)")
		backoff     = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay of the deterministic exponential backoff between cell retries")
		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock backstop per cell: a run stuck past this is cancelled at its next power-cycle boundary and retried (0 = off; never affects results)")
		cellBudget  = flag.Uint64("cell-budget", 0, "deterministic per-cell deadline in simulated cycles: clamps each cell's MaxCycles (0 = off)")
		stopAfter   = flag.Uint64("interrupt-after", 0, "deterministically drain the sweep after admitting N cells, as if interrupted (for resume tests)")

		telemetryLinger = flag.Duration("telemetry-linger", 0, "keep the -listen telemetry server up this long after the sweep finishes (so scrapers catch the final state; used by make obs-smoke)")

		servers         = flag.String("servers", "", "comma-separated ipexd base URLs (http://host:port); remotable cells execute on the fleet behind retries, hedging, and per-server circuit breakers, and degrade to local simulation when the fleet cannot answer")
		remoteRetries   = flag.Int("remote-retries", 3, "fleet attempts per cell beyond the first before degrading to local execution")
		remoteTimeout   = flag.Duration("remote-timeout", 15*time.Second, "per-attempt HTTP deadline for fleet requests")
		hedgeAfter      = flag.Duration("hedge-after", 250*time.Millisecond, "race a second fleet replica when an attempt has not answered within this duration (0 disables hedging)")
		noLocalFallback = flag.Bool("no-local-fallback", false, "fail a cell whose fleet retry budget is exhausted instead of simulating it locally")
	)
	flag.Parse()

	// Validate flags up front: a bad value should die with one clear line
	// here, not as a panic or library error deep inside a sweep.
	// "!(x > 0)" also catches NaN.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fmt.Fprintf(os.Stderr, "experiments: -scale must be a positive finite number, got %g\n", *scale)
		os.Exit(1)
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -parallelism must be >= 0, got %d\n", *parallel)
		os.Exit(1)
	}
	if *apps != "" {
		for _, a := range strings.Split(*apps, ",") {
			if !workload.Known(a) {
				fmt.Fprintf(os.Stderr, "experiments: unknown app %q in -apps (want a subset of %s)\n",
					a, strings.Join(workload.Names(), ", "))
				os.Exit(1)
			}
		}
	}
	if *maxRetries < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -max-retries must be >= 0, got %d\n", *maxRetries)
		os.Exit(1)
	}
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs -journal <file> (the journal to replay)")
		os.Exit(1)
	}
	if *servers == "" {
		remoteFlagSet := false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "remote-retries", "remote-timeout", "hedge-after", "no-local-fallback":
				remoteFlagSet = true
			}
		})
		if remoteFlagSet {
			fmt.Fprintln(os.Stderr, "experiments: -remote-retries/-remote-timeout/-hedge-after/-no-local-fallback need -servers <urls>")
			os.Exit(1)
		}
	} else {
		if *remoteRetries < 0 {
			fmt.Fprintf(os.Stderr, "experiments: -remote-retries must be >= 0, got %d\n", *remoteRetries)
			os.Exit(1)
		}
		// A remote cell produces no local trace events or simulator
		// counters, so tracing or a metrics dump contradicts farming the
		// cell out: the dump would hold only the client's remote.* series.
		if *tracePath != "" || *traceDir != "" || *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "experiments: -servers is incompatible with -trace/-tracedir/-metrics (remote cells emit no local trace events or simulator counters)")
			os.Exit(1)
		}
	}

	if *cpuProfile != "" {
		a, err := benchio.NewAtomicFile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(a); err != nil {
			a.Discard()
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := a.Commit(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			a, err := benchio.NewAtomicFile(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(a); err != nil {
				a.Discard()
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			if err := a.Commit(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}()
	}

	if *list {
		ids := make([]string, 0, len(registry))
		for id := range registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}

	o := experiments.Options{Scale: *scale, TraceSeed: *seed, Parallelism: *parallel, Paranoid: *paranoid}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}

	// The supervisor is shared by every experiment of this invocation: its
	// StopAfter budget, retry policy, and counters span the whole sweep.
	sup := &harness.Supervisor{
		MaxRetries:   *maxRetries,
		BackoffBase:  *backoff,
		WallBackstop: *cellTimeout,
		StopAfter:    *stopAfter,
	}
	o.Sup = sup
	o.CellBudget = *cellBudget

	// SIGINT/SIGTERM drain the sweep gracefully: dispatch stops, in-flight
	// cells finish and are journaled, artifacts flush atomically, and the
	// process exits with a resumable journal. A second signal kills.
	drainCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	o.Ctx = drainCtx
	var sweepDone atomic.Bool
	go func() {
		<-drainCtx.Done()
		if sweepDone.Load() {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments: interrupt received; finishing in-flight cells and flushing artifacts (interrupt again to kill)")
		// Restore default signal disposition so an impatient second ^C
		// terminates immediately.
		stopSignals()
	}()

	var tracerOut *benchio.AtomicFile
	if *tracePath != "" {
		if *traceDir != "" {
			fmt.Fprintln(os.Stderr, "experiments: -trace and -tracedir are mutually exclusive (one shared stream vs one file per cell)")
			os.Exit(1)
		}
		a, err := benchio.NewAtomicFile(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		tracerOut = a
		o.Tracer = trace.NewJSONL(a)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		o.Cells = experiments.NewCellTracing(*traceDir)
	}
	if *metricsOut != "" || *listenAddr != "" {
		o.Metrics = trace.NewRegistry()
	}
	// Lifecycle spans only under -listen: live telemetry wants latency
	// histograms, while a -metrics-only run stays span-free so its JSON
	// dump holds nothing wall-clock-dependent. The injected clock is the
	// only wall-time source the observability layer ever sees.
	var telClock trace.Clock
	if *listenAddr != "" {
		telClock = trace.NewWallClock()
		sup.Obs = harness.NewObs(telClock, o.Metrics)
	}

	// Remote execution: remotable cells are encoded declaratively
	// (remote.EncodeCell proves the fleet reconstructs the exact cell key)
	// and handed to the resilient client; everything else — and every cell
	// the fleet cannot answer — runs locally as before.
	var rc *remote.Client
	if *servers != "" {
		var err error
		rc, err = remote.NewClient(remote.Options{
			Servers:         splitList(*servers),
			Retries:         *remoteRetries,
			Timeout:         *remoteTimeout,
			HedgeAfter:      *hedgeAfter,
			NoLocalFallback: *noLocalFallback,
			BaseContext:     drainCtx,
			Clock:           telClock,
			Metrics:         o.Metrics,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", a...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -servers: %v\n", err)
			os.Exit(1)
		}
		o.RemoteEncode = remote.EncodeCell
		sup.Remote = rc
		fmt.Fprintf(os.Stderr, "remote execution: %d server(s), retries=%d, timeout=%v, hedge-after=%v, local-fallback=%v\n",
			len(splitList(*servers)), *remoteRetries, *remoteTimeout, *hedgeAfter, !*noLocalFallback)
	}

	var ids []string
	switch {
	case *all:
		ids = order
	case *exp != "":
		if _, ok := registry[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		ids = []string{*exp}
	default:
		fmt.Fprintln(os.Stderr, "experiments: need -all, -exp <id>, or -list")
		os.Exit(1)
	}

	// The sweep hash covers everything that changes any cell's identity; a
	// -resume against a journal hashed from a different command line is
	// rejected before a single cell runs.
	appsList := o.Apps
	if len(appsList) == 0 {
		appsList = workload.Names()
	}
	sweepKey := harness.Key(experiments.SweepIdentity{
		Experiments: ids,
		Scale:       *scale,
		Apps:        appsList,
		TraceSeed:   *seed,
		Paranoid:    *paranoid,
		CellBudget:  *cellBudget,
	})

	// journal is the durable journal of this sweep.
	var journal *harness.Journal
	if *journalPath != "" {
		if *resume {
			j, replay, warns, err := harness.ResumeJournal(*journalPath, sweepKey)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			for _, w := range warns {
				fmt.Fprintf(os.Stderr, "experiments: warning: %s\n", w)
			}
			replayable := 0
			for _, e := range replay {
				if e.Kind == harness.KindCell {
					replayable++
				}
			}
			fmt.Fprintf(os.Stderr, "resuming %s: %d journaled cell(s) will replay without re-simulating\n", *journalPath, replayable)
			journal, sup.Replay = j, replay
		} else {
			j, err := harness.CreateJournal(*journalPath, sweepKey)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			journal = j
		}
		sup.Journal = journal
		defer journal.Close()
	}

	// telemetryShutdown drains the -listen server on every exit path after
	// the sweep: a bare http.Serve would leave the listener up through the
	// SIGINT drain and let one stalled client pin a goroutine forever.
	telemetryShutdown := func() {}
	if *listenAddr != "" {
		o.Progress = &experiments.Progress{}
		ln, err := net.Listen("tcp", *listenAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s/metrics\n", ln.Addr())
		srv := httpd.New(newTelemetryHandler(telClock, o.Progress, o.Metrics, sup, rc))
		telemetryShutdown = func() {
			if err := httpd.Shutdown(srv, 2*time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: telemetry shutdown: %v\n", err)
			}
		}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "experiments: telemetry server: %v\n", err)
			}
		}()
	}

	// §6.1's overhead analysis is pure arithmetic; print it with -all.
	if *all {
		fmt.Println(overheadReport())
		fmt.Println()
	}

	var failures []string
	interrupted := false
	for _, id := range ids {
		if o.Tracer != nil {
			// A mark event separates the experiments in the shared stream.
			o.Tracer.Emit(trace.Event{Kind: trace.KindMark, Detail: id})
		}
		// Per-cell trace files embed the experiment id in their names.
		o.Cells.SetLabel(id)
		start := time.Now()
		r, err := registry[id](o)
		if errors.Is(err, harness.ErrInterrupted) {
			// Graceful drain: in-flight cells already finished and were
			// journaled; stop dispatching the remaining experiments too and
			// fall through to flush every artifact atomically.
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			interrupted = true
			break
		}
		if err != nil {
			// One failing experiment must not abort the rest of -all; record
			// it and keep sweeping. A single -exp run still exits on the spot.
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			if !*all {
				os.Exit(1)
			}
			failures = append(failures, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		elapsed := time.Since(start).Seconds()
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{"experiment": id, "result": r}); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: encoding %s: %v\n", id, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Println(r.String())
		fmt.Printf("(%s took %.1fs)\n\n", id, elapsed)
	}

	sweepDone.Store(true)

	if o.Tracer != nil {
		if err := o.Tracer.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := tracerOut.Commit(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", o.Tracer.Events(), *tracePath)
	}
	if o.Cells != nil {
		fmt.Fprintf(os.Stderr, "wrote %d cell trace files to %s\n", o.Cells.Files(), *traceDir)
	}
	if *metricsOut != "" {
		a, err := benchio.NewAtomicFile(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := o.Metrics.WriteJSON(a); err != nil {
			a.Discard()
			fmt.Fprintf(os.Stderr, "experiments: writing metrics: %v\n", err)
			os.Exit(1)
		}
		if err := a.Commit(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", *metricsOut)
	}

	// The sweep is over and its artifacts are flushed; the graceful drain
	// includes the telemetry listener on every exit path below. An optional
	// linger keeps the final state scrapeable for a moment first.
	if *listenAddr != "" && *telemetryLinger > 0 && !interrupted {
		time.Sleep(*telemetryLinger)
	}
	telemetryShutdown()

	if cs := sup.Counters.Snapshot(); cs != (harness.CounterSnapshot{}) {
		fmt.Fprintf(os.Stderr, "supervision: %d cell(s) executed, %d replayed, %d remote, %d retried, %d timeouts, %d panics, %d failed\n",
			cs.Executed, cs.Replayed, cs.Remote, cs.Retried, cs.Timeouts, cs.Panics, cs.Failures)
	}
	if rc != nil {
		fmt.Fprintln(os.Stderr, rc.Summary())
	}
	if interrupted {
		if journal != nil {
			fmt.Fprintf(os.Stderr, "experiments: interrupted; journal %s is resumable — rerun the same command line with -resume\n", journal.Path())
		} else {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; rerun with -journal <file> to make sweeps resumable")
		}
		journal.Close()
		os.Exit(130)
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiment(s) failed:\n", len(failures), len(ids))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
}
