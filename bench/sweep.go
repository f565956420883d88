package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/remote"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

// sweepExps is what a reproduction user runs: Figs 10–25 and Tables 2–4,
// in cmd/experiments -all order. Almost every cell takes one of nvp's
// specialized fast loops, and a third of the cells repeat a key another
// experiment already ran.
var sweepExps = []string{
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"table2", "table3", "table4",
	"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
}

// checkedExps run with Paranoid set: the invariant ledger and the fault
// injectors force every cell through nvp's generic interpreter loop, the
// path sweepExps bypasses.
var checkedExps = []string{
	"robust-sensor", "robust-ckpt",
	"ablation-degree", "ablation-adaptive", "ablation-dup", "ablation-dest",
	"ext-reissue", "ext-addrgen",
}

type runner func(experiments.Options) (fmt.Stringer, error)

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
	"fig10": wrap(experiments.Fig10), "fig11": wrap(experiments.Fig11),
	"fig12": wrap(experiments.Fig12), "fig13": wrap(experiments.Fig13),
	"fig14": wrap(experiments.Fig14), "fig15": wrap(experiments.Fig15),
	"table2": wrap(experiments.Table2), "table3": wrap(experiments.Table3),
	"table4": wrap(experiments.Table4),
	"fig16":  wrap(experiments.Fig16), "fig17": wrap(experiments.Fig17),
	"fig18": wrap(experiments.Fig18), "fig19": wrap(experiments.Fig19),
	"fig20": wrap(experiments.Fig20), "fig21": wrap(experiments.Fig21),
	"fig22": wrap(experiments.Fig22), "fig23": wrap(experiments.Fig23),
	"fig24": wrap(experiments.Fig24), "fig25": wrap(experiments.Fig25),

	"robust-sensor":     wrap(experiments.RobustSensor),
	"robust-ckpt":       wrap(experiments.RobustCkpt),
	"ablation-degree":   wrap(experiments.AblationDegreePolicy),
	"ablation-adaptive": wrap(experiments.AblationAdaptive),
	"ablation-dup":      wrap(experiments.AblationDupSuppress),
	"ablation-dest":     wrap(experiments.AblationPrefetchDest),
	"ext-reissue":       wrap(experiments.AblationReissue),
	"ext-addrgen":       wrap(experiments.AblationAddressGen),
}

// grid is one sweep definition.
type grid struct {
	exps     []string
	scale    float64
	apps     []string // nil = all 20
	paranoid bool
}

func (g grid) appList() []string {
	if len(g.apps) == 0 {
		return workload.Names()
	}
	return g.apps
}

// loadStreams generates every app's access stream into store: the set-up a
// sweep pays before its first cell.
func loadStreams(store *workload.Store, g grid) error {
	for _, app := range g.appList() {
		if _, err := store.Stream(app, g.scale); err != nil {
			return err
		}
	}
	return nil
}

// pass is one complete sweep of a grid.
type pass struct {
	traced  bool
	wall    time.Duration
	digests []string // one per experiment
	cells   uint64
	insts   uint64
	sup     harness.CounterSnapshot
	fleet   remote.Snapshot
	lat     []time.Duration // per cell, from its start to its journal entry
	proc    procSnap        // delta over the pass
	layer   map[string]float64
}

// passEnv says how a pass runs: locally, or farmed to a fleet.
type passEnv struct {
	seed   uint64
	store  *workload.Store
	fleet  []*server
	traced bool
}

// runPass sweeps the grid once with a fresh fsync'd journal, the way
// cmd/experiments -journal does.
func (b *bench) runPass(g grid, env passEnv, n int) (p pass, err error) {
	p.traced = env.traced
	var tr *tracer
	if env.traced {
		tr = b.tr
	}
	path := filepath.Join(b.work, fmt.Sprintf("pass%d.jsonl", n))
	sweepKey := harness.Key(experiments.SweepIdentity{Experiments: g.exps, Scale: g.scale,
		Apps: g.appList(), TraceSeed: env.seed, Paranoid: g.paranoid})
	j, err := harness.CreateJournal(path, sweepKey)
	if err != nil {
		return p, err
	}
	defer os.Remove(path)
	defer j.Close()

	hooks := newCellHooks(j, tr)
	sup := &harness.Supervisor{Journal: hooks, Skip: hooks.start}
	prog := &experiments.Progress{}
	o := experiments.Options{Scale: g.scale, Apps: g.apps, TraceSeed: env.seed, Parallelism: b.par,
		Workloads: env.store, Sup: sup, Paranoid: g.paranoid, Progress: prog}
	var reg *trace.Registry
	if env.traced {
		reg = trace.NewRegistry()
		sup.Obs = harness.NewObs(trace.NewWallClock(), reg)
	}
	var client *remote.Client
	var probe *remoteProbe
	var before map[string]float64
	if env.fleet != nil {
		// cmd/experiments' default retries, timeout and hedge.
		ro := remote.Options{Servers: urls(env.fleet), Retries: 3, Timeout: 15 * time.Second, HedgeAfter: 250 * time.Millisecond}
		if env.traced {
			probe = newRemoteProbe(hooks, tr)
			ro.Transport = probe
		}
		if client, err = remote.NewClient(ro); err != nil {
			return p, err
		}
		sup.Remote, o.RemoteEncode = client, remote.EncodeCell
		if probe != nil {
			probe.next = client
			sup.Remote, o.RemoteEncode = probe, probe.encodeCell
			if before, err = scrapeAll(env.fleet); err != nil {
				return p, err
			}
		}
	}

	passID := tr.newID()
	p0 := readProc(b.live())
	start := time.Now()
	for _, id := range g.exps {
		eid := tr.newID()
		hooks.exp.Store(eid)
		t0 := time.Now()
		r, err := registry[id](o)
		if err != nil {
			return p, fmt.Errorf("%s: %w", id, err)
		}
		p.digests = append(p.digests, digestOf(id, r.String()))
		tr.record("experiment", id, eid, passID, t0, time.Now(), "")
	}
	end := time.Now()
	p.wall = end.Sub(start)
	p.proc = readProc(b.live()).sub(p0)
	tr.record("pass", "pass"+strconv.Itoa(n), passID, 0, start, end, "")

	p.cells, _, p.insts = prog.Snapshot()
	p.sup = sup.Counters.Snapshot()
	p.lat = hooks.lat
	if client != nil {
		p.fleet = client.Snapshot()
	}
	if !env.traced {
		return p, nil
	}

	// Traced: reduce this pass's probes to per-layer numbers.
	L := map[string]float64{}
	p.layer = L
	attempt := reg.Histogram("harness.attempt_seconds", nil).Snapshot().Sum
	appendS := seconds(hooks.appends)
	L["harness.queue_wait_s"] = reg.Histogram("harness.queue_wait_seconds", nil).Snapshot().Sum
	L["harness.journal_append_s"] = appendS
	L["harness.journal_append_p99_ms"] = quantile(ms(hooks.appends), 0.99)
	L["experiments.cells"] = float64(p.cells)
	L["experiments.distinct_keys"] = float64(len(hooks.seen))
	L["experiments.dup_cells"] = float64(hooks.dups)
	L["experiments.dup_ratio"] = float64(hooks.dups) / float64(max(p.cells, 1))
	if uint64(len(hooks.seen)+hooks.dups) != p.cells {
		b.mismatchf("pass %d: %d cells finished but the journal saw %d distinct keys and %d duplicates",
			n, p.cells, len(hooks.seen), hooks.dups)
	}
	busy, insts := attempt, p.insts
	var remoteS, encodeS float64
	if probe != nil {
		remoteS, encodeS = seconds(probe.cells), probe.encode.Seconds()
		insts -= probe.insts
		L["remote.encode_us"] = encodeS * 1e6 / float64(max(probe.encodes, 1))
		L["remote.cell_p50_us"] = quantile(us(probe.cells), 0.5)
		L["remote.cell_p99_us"] = quantile(us(probe.cells), 0.99)
		L["remote.cell_s"] = remoteS
		L["remote.wire_s"] = probe.wire.Seconds()
		L["remote.attempts"] = float64(p.fleet.Attempts)
		L["remote.retries"] = float64(p.fleet.Retries)
		L["remote.hedges"] = float64(p.fleet.Hedges)
		L["remote.fallbacks"] = float64(p.fleet.CellsLocalFallback + p.fleet.CellsUnroutable)
		after, err := scrapeAll(env.fleet)
		if err != nil {
			return p, err
		}
		sb, si := b.serverLayers(L, before, after, fmt.Sprintf("pass %d", n))
		busy += sb
		insts += si
		// A warm fleet answers every remote cell from memory: one hit per
		// cell, plus at most one per hedge that reached a server. Cells the
		// wire cannot express run locally.
		if hits := uint64(L["resultstore.mem_hits"]); hits < p.fleet.CellsRemote || hits > p.fleet.CellsRemote+p.fleet.Hedges {
			b.mismatchf("pass %d: %d memory hits for %d remote cells (%d hedges)", n, hits, p.fleet.CellsRemote, p.fleet.Hedges)
		}
	}
	L["nvp.busy_s"] = busy
	L["nvp.insts"] = float64(insts)
	if insts > 0 {
		L["nvp.ns_per_inst"] = busy * 1e9 / float64(insts)
	}
	// Worker time the probes account for: simulation attempts, journal
	// appends, remote cells, and the serial request encoding during which
	// every worker waits for its batch.
	workers := float64(b.par)
	L["harness.unattributed_frac"] = 1 - (attempt+appendS+remoteS+workers*encodeS)/(workers*p.wall.Seconds())
	p.proc.layers(L)
	return p, nil
}

// serverLayers adds the ipexd and resultstore metrics of one timed region
// (scrape deltas summed over servers) to L, checks that the servers'
// request counters partition exactly, and returns the servers' simulation
// seconds and instructions.
func (b *bench) serverLayers(L, before, after map[string]float64, where string) (busy float64, insts uint64) {
	d := func(name string) float64 { return metricDelta(before, after, name) }
	L["ipexd.run_s"] = d("ipexd.run_seconds_sum")
	L["ipexd.requests"] = d("ipexd.requests")
	L["ipexd.errors"] = d("ipexd.errors")
	L["resultstore.mem_hits"] = d("store.mem_hits")
	L["resultstore.disk_hits"] = d("store.disk_hits")
	L["resultstore.computed"] = d("store.computed")
	L["resultstore.coalesced"] = d("store.coalesced")
	L["resultstore.compute_s"] = d("store.compute_seconds_sum")
	L["resultstore.disk_read_s"] = d("store.disk_read_seconds_sum")
	served := L["resultstore.mem_hits"] + L["resultstore.disk_hits"] + L["resultstore.computed"] +
		L["resultstore.coalesced"] + L["ipexd.errors"]
	if served != L["ipexd.requests"] {
		b.mismatchf("%s: ipexd counted %.0f requests but %.0f store outcomes and errors", where, L["ipexd.requests"], served)
	}
	return d("harness.attempt_seconds_sum"), uint64(d("run.insts"))
}

func (a procSnap) sub(b procSnap) procSnap {
	return procSnap{cpu: a.cpu - b.cpu, alloc: a.alloc - b.alloc, gcs: a.gcs - b.gcs}
}

func (a procSnap) layers(L map[string]float64) {
	L["proc.cpu_s"] = a.cpu.Seconds()
	L["proc.alloc_mb"] = float64(a.alloc) / (1 << 20)
	L["proc.gc_cycles"] = float64(a.gcs)
}

// timedPasses repeats run until the measured time is spent, and at least
// twice so that every run compares two passes. A traced run alternates
// untraced and traced passes; the untraced ones give the end-to-end
// metrics and the traced ones the per-layer metrics.
func (b *bench) timedPasses(run func(n int, traced bool) (pass, error)) ([]pass, error) {
	start := time.Now()
	var ps []pass
	for n := 0; n < 2 || time.Since(start) < b.cfg.seconds; n++ {
		// Each pass starts from a collected heap, as a fresh sweep process
		// does, rather than collecting the previous pass's garbage.
		runtime.GC()
		p, err := run(n, b.tr != nil && n%2 == 1)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: pass %d (traced=%v): %d cells in %.3fs\n", n, p.traced, p.cells, p.wall.Seconds())
		ps = append(ps, p)
	}
	return ps, nil
}

// localSweep runs sweep or sweep-checked in this process.
func (b *bench) localSweep(g grid) error {
	var store *workload.Store
	var setups []float64
	for i := 0; i < b.sz.localSetups; i++ {
		// Collect the previous repetition's store first, so that peak
		// memory counts one store, not however many the GC left behind.
		store = nil
		runtime.GC()
		t0 := time.Now()
		store = workload.NewStore()
		if err := loadStreams(store, g); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.m["setup_s"] = median(setups)
	b.m["workload.stream_gen_s"] = median(setups)

	passes, err := b.timedPasses(func(n int, traced bool) (pass, error) {
		return b.runPass(g, passEnv{seed: b.cfg.seed, store: store, traced: traced}, n)
	})
	if err != nil {
		return err
	}
	want, err := b.golden(g)
	if err != nil {
		return err
	}
	if want == nil {
		want = passes[0].digests
	}
	b.checkPasses(g, passes, want)
	b.passMetrics(passes)
	return nil
}

// fleetWarm farms the sweep grid to two ipexd servers whose caches a cold
// pass filled during set-up, and times warm passes.
func (b *bench) fleetWarm() error {
	g := grid{exps: sweepExps, scale: b.sz.fleetScale, apps: b.sz.apps}
	t0 := time.Now()
	store := workload.NewStore()
	if err := loadStreams(store, g); err != nil {
		return err
	}
	b.m["workload.stream_gen_s"] = time.Since(t0).Seconds()
	// The reference is the grid computed locally: committed for the seeds
	// testdata covers, computed here before any server exists otherwise.
	// Either way it is not part of set-up.
	want, err := b.golden(g)
	if err != nil {
		return err
	}
	if want == nil {
		ref, err := b.runPass(g, passEnv{seed: b.cfg.seed, store: store}, -1)
		if err != nil {
			return err
		}
		want = ref.digests
	}

	// Set-up: start the fleet and fill its caches with one cold pass.
	var fleet []*server
	var setups []float64
	for i := 0; i < b.sz.serverSetups; i++ {
		for _, s := range fleet {
			if err := s.stop(); err != nil {
				return err
			}
		}
		fleet = fleet[:0]
		t0 := time.Now()
		for k := 0; k < 2; k++ {
			s, err := b.startServer("-workers", "1")
			if err != nil {
				return err
			}
			fleet = append(fleet, s)
		}
		cold, err := b.runPass(g, passEnv{seed: b.cfg.seed, store: store, fleet: fleet}, -2-i)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.checkOutputs(fmt.Sprintf("cold pass %d", i), g, cold.digests, want)
	}
	b.m["setup_s"] = median(setups)

	passes, err := b.timedPasses(func(n int, traced bool) (pass, error) {
		return b.runPass(g, passEnv{seed: b.cfg.seed, store: store, fleet: fleet, traced: traced}, n)
	})
	if err != nil {
		return err
	}
	b.checkPasses(g, passes, want)
	b.passMetrics(passes)
	return nil
}

// checkPasses compares every pass's rendered results with want and checks
// that each pass ran the same cells and instructions.
func (b *bench) checkPasses(g grid, passes []pass, want []string) {
	for i, p := range passes {
		b.checkOutputs(fmt.Sprintf("pass %d", i), g, p.digests, want)
		if p.cells != passes[0].cells || p.insts != passes[0].insts {
			b.mismatchf("pass %d ran %d cells / %d instructions, pass 0 ran %d / %d",
				i, p.cells, p.insts, passes[0].cells, passes[0].insts)
		}
	}
	b.digest = combineDigests(want)
}

func (b *bench) checkOutputs(label string, g grid, got, want []string) {
	for i, id := range g.exps {
		if got[i] != want[i] {
			b.mismatchf("%s: experiment %s renders digest %s, want %s", label, id, got[i], want[i])
			return
		}
	}
}

// passMetrics reduces the passes: end-to-end metrics from the untraced
// passes, per-layer metrics averaged over the traced ones.
func (b *bench) passMetrics(passes []pass) {
	var rates, lat, tracedRates []float64
	var layers []map[string]float64
	for _, p := range passes {
		b.attempted += int64(p.cells)
		b.failed += int64(p.sup.Failures + p.fleet.CellsLocalFallback + p.fleet.CellsUnroutable + p.fleet.CellsFailed)
		rate := float64(p.cells) / p.wall.Seconds()
		if p.traced {
			tracedRates = append(tracedRates, rate)
			layers = append(layers, p.layer)
			continue
		}
		rates = append(rates, rate)
		lat = append(lat, ms(p.lat)...)
	}
	b.m["cells_per_s"] = median(rates)
	b.m["p50_ms"] = quantile(lat, 0.5)
	b.m["p99_ms"] = quantile(lat, 0.99)
	b.m["peak_rss_mb"] = peakRSSMiB(b.live())
	if len(layers) > 0 {
		for k := range layers[0] {
			var xs []float64
			for _, l := range layers {
				xs = append(xs, l[k])
			}
			b.m[k] = mean(xs)
		}
		b.m["trace_overhead_frac"] = 1 - median(tracedRates)/median(rates)
		if u := b.m["harness.unattributed_frac"]; u > maxUnattributed {
			fmt.Fprintf(os.Stderr, "bench: warning: %.1f%% of worker time is unattributed (bound %.0f%%)\n", 100*u, 100*maxUnattributed)
		}
	}
}

// maxUnattributed bounds the share of sweep worker time no probe explains:
// pool barriers between batches, rendering, and experiment bookkeeping.
const maxUnattributed = 0.15

// golden returns the committed per-experiment digests for this workload's
// grid and seed, or nil when none are committed.
func (b *bench) golden(g grid) ([]string, error) {
	all, err := loadGoldens(b.cfg.digests)
	if err != nil {
		return nil, err
	}
	set, ok := all[b.cfg.workload]
	if !ok || set.Scale != g.scale || len(g.apps) != 0 {
		return nil, nil
	}
	byExp := set.Seeds[strconv.FormatUint(b.cfg.seed, 10)]
	if byExp == nil {
		return nil, nil
	}
	out := make([]string, len(g.exps))
	for i, id := range g.exps {
		out[i] = byExp[id]
	}
	return out, nil
}

// goldenSet holds the committed digests of one workload's grid at one
// scale: seed → experiment → digest.
type goldenSet struct {
	Scale float64                      `json:"scale"`
	Seeds map[string]map[string]string `json:"seeds"`
}

func loadGoldens(path string) (map[string]goldenSet, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out map[string]goldenSet
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return out, nil
}

// writeDigests recomputes the committed digests for seeds 1..N of every
// sweep workload by computing each grid locally.
func writeDigests(cfg config) error {
	b := &bench{cfg: cfg, sz: fullSizes, par: 2, m: map[string]float64{}}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.work, "digests-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b.work = work
	grids := map[string]grid{
		"sweep":         {exps: sweepExps, scale: b.sz.sweepScale},
		"sweep-checked": {exps: checkedExps, scale: b.sz.sweepScale, paranoid: true},
		"fleet-warm":    {exps: sweepExps, scale: b.sz.fleetScale},
	}
	out := map[string]goldenSet{}
	for name, g := range grids {
		store := workload.NewStore()
		set := goldenSet{Scale: g.scale, Seeds: map[string]map[string]string{}}
		for seed := 1; seed <= cfg.writeDigests; seed++ {
			p, err := b.runPass(g, passEnv{seed: uint64(seed), store: store}, seed)
			if err != nil {
				return err
			}
			byExp := map[string]string{}
			for i, id := range g.exps {
				byExp[id] = p.digests[i]
			}
			set.Seeds[strconv.Itoa(seed)] = byExp
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, seed, combineDigests(p.digests))
		}
		out[name] = set
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.digests, append(raw, '\n'), 0o644)
}

// digestOf fingerprints one experiment's rendered result (64 bits of
// SHA-256 over its id and text).
func digestOf(id, text string) string {
	sum := sha256.Sum256([]byte(id + "\n" + text))
	return hex.EncodeToString(sum[:8])
}

func combineDigests(ds []string) string {
	sum := sha256.Sum256([]byte(strings.Join(ds, "\n")))
	return hex.EncodeToString(sum[:8])
}

func urls(servers []*server) []string {
	out := make([]string, len(servers))
	for i, s := range servers {
		out[i] = s.url
	}
	return out
}

func seconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
