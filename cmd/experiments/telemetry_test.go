package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/promtext"
	"ipex/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestTelemetryEndpoints drives the -listen handler over real HTTP: /metrics
// must expose the sweep-progress gauges and the shared registry in valid
// Prometheus text format, /debug/vars the expvar JSON.
func TestTelemetryEndpoints(t *testing.T) {
	prog := &experiments.Progress{}
	reg := trace.NewRegistry()
	// Sentinel metrics with names no simulation touches, so their exact
	// values survive the sweep below.
	reg.Counter("test.sentinel").Add(5)
	reg.Gauge("test.sentinel_gauge").Add(12.5)

	// Run a real (tiny) sweep through the progress counters so the gauges
	// carry live values, exactly as a sweep under -listen would.
	sup := &harness.Supervisor{}
	o := experiments.Options{Scale: 0.02, Apps: []string{"fft", "gsme"}, Progress: prog, Metrics: reg, Sup: sup}
	if _, err := experiments.Fig11(o); err != nil {
		t.Fatal(err)
	}
	done, total, insts := prog.Snapshot()
	if done == 0 || done != total || insts == 0 {
		t.Fatalf("sweep progress = %d/%d insts=%d", done, total, insts)
	}

	srv := httptest.NewServer(newTelemetryHandler(trace.NewWallClock(), prog, reg, sup, nil))
	defer srv.Close()

	body := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE ipex_sweep_cells_total gauge",
		"# TYPE ipex_sweep_cells_done gauge",
		"# TYPE ipex_sweep_insts_total gauge",
		"# TYPE ipex_sweep_elapsed_seconds gauge",
		"# TYPE ipex_sweep_cells_per_second gauge",
		"# TYPE ipex_sweep_eta_seconds gauge",
		// Supervision counters from the crash-safe harness ride along; this
		// unsupervised-but-counted sweep executed every cell and replayed,
		// retried, and panicked none.
		"# TYPE ipex_sweep_cells_replayed gauge",
		"ipex_sweep_cells_replayed 0",
		"# TYPE ipex_sweep_cells_retried gauge",
		"# TYPE ipex_sweep_cell_timeouts gauge",
		"# TYPE ipex_sweep_cell_panics gauge",
		"ipex_sweep_cell_panics 0",
		"# TYPE ipex_sweep_cell_failures gauge",
		// The shared registry rides along, counters typed as counters, with
		// live simulation metrics next to the sentinels.
		"# TYPE ipex_test_sentinel counter",
		"ipex_test_sentinel 5",
		"ipex_test_sentinel_gauge 12.5",
		"# TYPE ipex_run_outages counter",
		"# TYPE ipex_energy_total_nj gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Every line is a comment or "name value" — the text exposition shape.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if f := strings.Fields(line); len(f) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	// The progress gauges reflect the sweep that ran.
	if !strings.Contains(body, "ipex_sweep_cells_done "+itoa(done)) {
		t.Errorf("/metrics does not report %d done cells:\n%s", done, body)
	}

	vars := get(t, srv, "/debug/vars")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	sweep, ok := decoded["ipex_sweep"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars missing ipex_sweep: %v", decoded)
	}
	if got := sweep["cells_done"].(float64); uint64(got) != done {
		t.Errorf("expvar cells_done = %v, want %d", got, done)
	}
}

// TestTelemetryConformance runs a tiny supervised sweep with lifecycle spans
// on — exactly the -listen wiring — and lints the full /metrics exposition:
// every family typed, histogram buckets cumulative with +Inf, no duplicate
// series. This is the conformance gate for the experiments endpoint.
func TestTelemetryConformance(t *testing.T) {
	prog := &experiments.Progress{}
	reg := trace.NewRegistry()
	clock := trace.NewWallClock()
	sup := &harness.Supervisor{Obs: harness.NewObs(clock, reg)}
	o := experiments.Options{Scale: 0.02, Apps: []string{"fft"}, Progress: prog, Metrics: reg, Sup: sup}
	if _, err := experiments.Fig11(o); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(newTelemetryHandler(clock, prog, reg, sup, nil))
	defer srv.Close()
	body := get(t, srv, "/metrics")
	if errs := promtext.Lint(body, "ipex_"); len(errs) != 0 {
		t.Errorf("/metrics failed conformance lint: %v\n%s", errs, body)
	}
	// The lifecycle histograms ride along once spans are on.
	for _, want := range []string{
		"# TYPE ipex_harness_attempt_seconds histogram",
		"ipex_harness_attempt_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	exp, err := promtext.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	fam := exp.Family("ipex_harness_attempt_seconds")
	if fam == nil {
		t.Fatal("no ipex_harness_attempt_seconds family parsed")
	}
	done, _, _ := prog.Snapshot()
	bs := promtext.Buckets(fam)
	if len(bs) == 0 || bs[len(bs)-1].CumCount != float64(done) {
		t.Errorf("attempt histogram +Inf count = %v buckets, want %d attempts", bs, done)
	}
}

func itoa(n uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			return string(b[i:])
		}
	}
}
