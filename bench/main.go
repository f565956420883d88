// Command bench is the repository benchmark. It runs one named workload
// through the simulator (nvp), the experiment layer, the crash-safe sweep
// harness, the remote client and ipexd subprocesses, checks every output
// the workload produces, and prints its metrics by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
// per-layer metrics. Run it through bench/run.sh from the repository root,
// which builds this command and ipexd from source first:
//
//	bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// bench/README.md describes the workloads, the metric glossary, the span
// files and the calibration mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	ipexd    string
	work     string
	spans    string
	specPath string
	digests  string
	tiny     bool // smoke-test sizes

	calibrate    int
	writeDigests int
}

// sizes fixes how much work each workload does. full is what BENCHMARK.json
// measures; tiny keeps the smoke test short.
type sizes struct {
	sweepScale   float64 // sweep and sweep-checked
	fleetScale   float64 // fleet-warm
	serveScale   float64 // serve-mixed requests
	apps         []string
	population   int     // serve-mixed keys warmed in set-up
	cacheEntries int     // serve-mixed ipexd memory tier, below population
	rate         float64 // serve-mixed open-loop requests per second
	// Set-up repetitions, setup_s being their median: more for the
	// sub-second local set-up, fewer where set-up starts servers.
	localSetups, serverSetups int
}

var (
	fullSizes = sizes{sweepScale: 0.25, fleetScale: 0.1, serveScale: 0.2,
		population: 400, cacheEntries: 160, rate: 200, localSetups: 7, serverSetups: 3}
	tinySizes = sizes{sweepScale: 0.02, fleetScale: 0.02, serveScale: 0.02,
		apps: []string{"adpcmd", "fft"}, population: 24, cacheEntries: 8, rate: 100, localSetups: 1, serverSetups: 1}
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	s, err := loadSpec(cfg.specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case cfg.calibrate > 0:
		err = calibrate(cfg, s)
	case cfg.writeDigests > 0:
		err = writeDigests(cfg)
	default:
		err = runAndReport(cfg, s, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed: the power-trace seed of the sweeps, the request-generator seed of serve-mixed")
	secs := fs.Float64("seconds", 10, "measured seconds per run")
	traceN := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&c.ipexd, "ipexd", "", "ipexd binary (fleet-warm, serve-mixed)")
	fs.StringVar(&c.work, "work", filepath.Join(".bench_build", "ipexbench", "run"), "scratch directory for journals and caches")
	fs.StringVar(&c.spans, "spans", filepath.Join("bench", "out"), "directory for the traced run's span files")
	fs.StringVar(&c.specPath, "spec", "BENCHMARK.json", "benchmark definition")
	fs.StringVar(&c.digests, "digests", filepath.Join("bench", "testdata", "digests.json"), "committed output digests")
	fs.IntVar(&c.calibrate, "calibrate", 0, "run two interleaved sets of N untraced repetitions per workload and rewrite the end-to-end bounds")
	fs.IntVar(&c.writeDigests, "write-digests", 0, "recompute the committed output digests for seeds 1..N")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if !(*secs > 0) {
		return c, fmt.Errorf("--seconds must be positive, got %g", *secs)
	}
	if *traceN != 0 && *traceN != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", *traceN)
	}
	c.seconds = time.Duration(*secs * float64(time.Second))
	c.trace = *traceN == 1
	return c, nil
}

// bench is one run of one workload.
type bench struct {
	cfg config
	sz  sizes
	// par is the sweep pool size and the number of client connections.
	par     int
	tr      *tracer // nil unless --trace 1
	work    string  // this run's scratch directory
	servers []*server

	m         map[string]float64
	attempted int64
	failed    int64
	digest    string
	pop       []popKey // serve-mixed population

	mu       sync.Mutex
	mismatch string // first wrong output, "" when every check passed
}

// mismatchf records the first output check that failed.
func (b *bench) mismatchf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mismatch == "" {
		b.mismatch = fmt.Sprintf(format, args...)
	}
}

func (b *bench) startServer(args ...string) (*server, error) {
	if b.cfg.ipexd == "" {
		return nil, errors.New("this workload needs --ipexd <binary>")
	}
	s, err := startServer(b.cfg.ipexd, args...)
	if err != nil {
		return nil, err
	}
	b.servers = append(b.servers, s)
	return s, nil
}

// live lists the servers not yet stopped.
func (b *bench) live() []*server {
	var out []*server
	for _, s := range b.servers {
		if !s.stopped {
			out = append(out, s)
		}
	}
	return out
}

// run executes one workload. Every server it started is stopped and the
// scratch directory removed on every path.
func run(cfg config) (*bench, error) {
	b := &bench{cfg: cfg, sz: fullSizes, par: min(2, runtime.NumCPU()), m: map[string]float64{}}
	if cfg.tiny {
		b.sz = tinySizes
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	b.work = work

	switch cfg.workload {
	case "sweep":
		err = b.localSweep(grid{exps: sweepExps, scale: b.sz.sweepScale, apps: b.sz.apps})
	case "sweep-checked":
		err = b.localSweep(grid{exps: checkedExps, scale: b.sz.sweepScale, apps: b.sz.apps, paranoid: true})
	case "fleet-warm":
		err = b.fleetWarm()
	case "serve-mixed":
		err = b.serveMixed()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	for _, s := range b.servers {
		if serr := s.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = rerr
	}
	if err == nil && b.tr != nil {
		err = b.tr.writeFile(filepath.Join(cfg.spans, cfg.workload+".spans.jsonl"))
	}
	return b, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the metrics the spec names: the end-to-end ones, or with
// --trace 1 the per-layer ones. A per-layer metric of a layer the workload
// does not exercise reads 0; an unmeasured end-to-end metric is a bug.
func (b *bench) result(s *spec) (result, error) {
	list := s.EndToEnd
	if b.cfg.trace {
		list = s.PerLayer
	}
	r := result{Correct: b.mismatch == "", Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metricValue, len(list))}
	for _, ms := range list {
		v, ok := b.m[ms.Name]
		if !ok && !b.cfg.trace {
			return r, fmt.Errorf("end-to-end metric %s was not measured on %s", ms.Name, b.cfg.workload)
		}
		r.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("%s attempted no work", b.cfg.workload)
	}
	return r, nil
}

func runAndReport(cfg config, s *spec, stdout io.Writer) error {
	b, err := run(cfg)
	if err != nil {
		return err
	}
	res, err := b.result(s)
	if err != nil {
		return err
	}
	env, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(), "go": runtime.Version(),
	})
	fmt.Fprintf(stdout, "env %s\n", env)
	fmt.Fprintf(stdout, "output_digest %s\n", b.digest)
	for _, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, ms := range group {
			if v, ok := b.m[ms.Name]; ok {
				fmt.Fprintf(stdout, "%-34s %16.6f %s\n", ms.Name, v, ms.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if b.mismatch != "" {
		return fmt.Errorf("wrong output: %s", b.mismatch)
	}
	return nil
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
