package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload of BENCHMARK.json at a tiny size in its
// traced form, which measures both metric sets. It checks that every named
// metric is emitted with its unit, that every output verified, and the
// exact-count identities between independently counted layers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ipexd and runs every workload")
	}
	dir := t.TempDir()
	ipexd := filepath.Join(dir, "ipexd")
	build := exec.Command("go", "build", "-o", ipexd, "./cmd/ipexd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ipexd: %v\n%s", err, out)
	}
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			spans := filepath.Join(dir, "spans")
			b, err := run(config{workload: w.Name, seed: 1, seconds: time.Second, trace: true,
				ipexd: ipexd, work: dir, spans: spans, digests: "testdata/digests.json", tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if b.mismatch != "" || b.failed != 0 || b.attempted < 1 {
				t.Fatalf("mismatch %q, %d of %d failed", b.mismatch, b.failed, b.attempted)
			}
			for _, trace := range []bool{false, true} {
				b.cfg.trace = trace
				r, err := b.result(s)
				if err != nil {
					t.Fatal(err)
				}
				list := s.EndToEnd
				if trace {
					list = s.PerLayer
				}
				for _, ms := range list {
					got, ok := r.Metrics[ms.Name]
					if !ok || got.Unit != ms.Unit {
						t.Errorf("%s: emitted %+v (present %v), want unit %s", ms.Name, got, ok, ms.Unit)
					}
					if !trace && !(got.Value > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", ms.Name, got.Value)
					}
				}
			}
			for name := range b.m {
				measured[name] = true
			}

			m := b.m
			if m["experiments.cells"] != m["experiments.distinct_keys"]+m["experiments.dup_cells"] {
				t.Errorf("cells %v != distinct %v + duplicates %v",
					m["experiments.cells"], m["experiments.distinct_keys"], m["experiments.dup_cells"])
			}
			served := m["resultstore.mem_hits"] + m["resultstore.disk_hits"] + m["resultstore.computed"] +
				m["resultstore.coalesced"] + m["ipexd.errors"]
			if served != m["ipexd.requests"] {
				t.Errorf("ipexd requests %v != store outcomes + errors %v", m["ipexd.requests"], served)
			}
			if w.Name == "fleet-warm" {
				if m["remote.hedges"] != 0 || m["remote.retries"] != 0 || m["remote.fallbacks"] != 0 {
					t.Fatalf("a warm loopback fleet hedged, retried or fell back: %v %v %v",
						m["remote.hedges"], m["remote.retries"], m["remote.fallbacks"])
				}
				if m["resultstore.mem_hits"] == 0 || m["resultstore.mem_hits"] != m["remote.attempts"] {
					t.Errorf("memory hits %v != remote cells %v", m["resultstore.mem_hits"], m["remote.attempts"])
				}
			}
			if fi, err := os.Stat(filepath.Join(spans, w.Name+".spans.jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
	for _, ms := range s.PerLayer {
		if !measured[ms.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", ms.Name)
		}
	}
}

// TestQuartiles pins the calibration's quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	want := [3]float64{2.75, 5.5, 8.25}
	for i := range q {
		if math.Abs(q[i]-want[i]) > 1e-12 {
			t.Fatalf("quartiles = %v, want %v", q, want)
		}
	}
}
