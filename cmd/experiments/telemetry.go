package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"ipex/internal/dist"
	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/remote"
	"ipex/internal/trace"
)

// telemetry serves a running sweep's live state: Prometheus text exposition
// on /metrics (sweep progress gauges + the shared metrics registry), the
// aggregated fleet view as JSON on /dist/v1/fleet (coordinator only), and Go
// expvar on /debug/vars. The sweep itself never blocks on a scrape — the
// handlers only read atomic counters — and results are unaffected by whether
// anyone is listening. The clock is injected so the only wall-time read in
// the sweep path stays inside trace.NewWallClock; its epoch is construction
// time, so Now() is directly the elapsed sweep duration.
type telemetry struct {
	clock  trace.Clock
	prog   *experiments.Progress
	reg    *trace.Registry
	sup    *harness.Supervisor
	coord  *dist.Coordinator
	remote *remote.Client
}

// counters reads the supervision counters (zero when no supervisor).
func (t *telemetry) counters() harness.CounterSnapshot {
	if t.sup == nil {
		return harness.CounterSnapshot{}
	}
	return t.sup.Counters.Snapshot()
}

// elapsed is the wall-clock seconds since the handler (≈ sweep) started.
func (t *telemetry) elapsed() float64 {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now().Seconds()
}

// curTelemetry backs the process-wide expvar publication (expvar allows one
// Publish per name per process; tests build several handlers).
var (
	curTelemetry atomic.Pointer[telemetry]
	expvarOnce   sync.Once
)

// newTelemetryHandler builds the HTTP handler for -listen. sup may be nil
// (unsupervised sweep); the supervision gauges then read zero.
func newTelemetryHandler(clock trace.Clock, prog *experiments.Progress, reg *trace.Registry, sup *harness.Supervisor) http.Handler {
	return newTelemetryHandlerDist(clock, prog, reg, sup, nil, nil)
}

// newTelemetryHandlerDist additionally exports the fleet when the sweep runs
// under a distributed coordinator (nil otherwise): merge/dedup totals,
// re-shard and steal counts, and per-worker liveness, throughput, and
// straggler flags — as typed ipex_fleet_* series on /metrics and as JSON on
// /dist/v1/fleet. rc, when non-nil, adds the remote-execution client's
// per-server series (ipex_remote_breaker_state and friends).
func newTelemetryHandlerDist(clock trace.Clock, prog *experiments.Progress, reg *trace.Registry, sup *harness.Supervisor, coord *dist.Coordinator, rc *remote.Client) http.Handler {
	t := &telemetry{clock: clock, prog: prog, reg: reg, sup: sup, coord: coord, remote: rc}
	curTelemetry.Store(t)
	expvarOnce.Do(func() {
		expvar.Publish("ipex_sweep", expvar.Func(func() any {
			cur := curTelemetry.Load()
			done, total, insts := cur.prog.Snapshot()
			cs := cur.counters()
			return map[string]any{
				"cells_done":      done,
				"cells_total":     total,
				"insts":           insts,
				"elapsed_seconds": cur.elapsed(),
				"cells_replayed":  cs.Replayed,
				"cells_remote":    cs.Remote,
				"cells_retried":   cs.Retried,
				"cell_timeouts":   cs.Timeouts,
				"cell_panics":     cs.Panics,
				"cell_failures":   cs.Failures,
			}
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.metrics)
	mux.Handle("/debug/vars", expvar.Handler())
	if coord != nil {
		mux.HandleFunc("/dist/v1/fleet", t.fleet)
	}
	return mux
}

// fleet serves the coordinator's aggregated per-worker view as JSON — the
// same data ipextop renders live.
func (t *telemetry) fleet(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(t.coord.Fleet()); err != nil {
		// A scrape racing a disconnect can fail mid-write; nobody to tell.
		_ = err
	}
}

// metrics writes Prometheus text exposition format 0.0.4: the sweep-progress
// gauges first, the fleet series when coordinating, then the metrics registry
// (counters and latency histograms accumulated across every simulation so
// far).
func (t *telemetry) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	done, total, insts := t.prog.Snapshot()
	elapsed := t.elapsed()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	eta := 0.0
	if rate > 0 && total > done {
		eta = float64(total-done) / rate
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("ipex_sweep_cells_total", "sweep cells enqueued so far", float64(total))
	gauge("ipex_sweep_cells_done", "sweep cells completed", float64(done))
	gauge("ipex_sweep_insts_total", "instructions simulated so far", float64(insts))
	gauge("ipex_sweep_elapsed_seconds", "wall-clock time since the sweep started", elapsed)
	gauge("ipex_sweep_cells_per_second", "completed cells per wall-clock second", rate)
	gauge("ipex_sweep_eta_seconds", "estimated seconds until the enqueued cells finish", eta)
	// Supervision counters (crash-safe harness): journal replays, retries,
	// watchdog timeouts, isolated panics, and journaled failures.
	cs := t.counters()
	gauge("ipex_sweep_cells_replayed", "cells answered from the journal without simulating: a resumed journal's entries, or a key this sweep already journaled", float64(cs.Replayed))
	gauge("ipex_sweep_cells_remote", "cells executed on the ipexd fleet (verified remote results)", float64(cs.Remote))
	gauge("ipex_sweep_cells_retried", "cell re-runs after a transient failure", float64(cs.Retried))
	gauge("ipex_sweep_cell_timeouts", "wall-clock backstop expiries", float64(cs.Timeouts))
	gauge("ipex_sweep_cell_panics", "isolated cell panics (journaled, soft-failed)", float64(cs.Panics))
	gauge("ipex_sweep_cell_failures", "cells journaled as failed (panics + exhausted retries)", float64(cs.Failures))
	// Fleet series: only present when this process coordinates workers. The
	// coordinator renders them itself so /metrics and /dist/v1/fleet always
	// agree on liveness, throughput, and straggler calls.
	if t.coord != nil {
		_ = t.coord.WriteFleetProm(w)
	}
	// Remote-execution series: per-server breaker states and attempt counts,
	// only present when the sweep runs against an ipexd fleet. The remote.*
	// counters themselves live in the shared registry below.
	if t.remote != nil {
		_ = t.remote.WriteProm(w)
	}
	// A scrape racing a disconnect can fail mid-write; there is no one to
	// report that to, so the error is dropped.
	_ = t.reg.WriteProm(w)
}
