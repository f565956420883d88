package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ipex/internal/stats"
)

func TestRegistryKindMismatch(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dup")
	c.Inc()

	// Same kind: the existing instrument comes back, never a fresh one.
	if c2, err := r.CounterErr("dup"); err != nil || c2 != c {
		t.Fatalf("CounterErr(dup) = %p, %v; want the original handle %p", c2, err, c)
	}

	// Kind mismatch: an error, not a panic, and not an aliased instrument.
	if g, err := r.GaugeErr("dup"); err == nil || g != nil {
		t.Fatalf("GaugeErr over a counter name = %v, %v; want nil handle + error", g, err)
	}
	if h, err := r.HistogramErr("dup", nil); err == nil || h != nil {
		t.Fatalf("HistogramErr over a counter name = %v, %v; want nil handle + error", h, err)
	}
	// The convenience accessors degrade to a discarding handle.
	g := r.Gauge("dup")
	g.Add(4)
	if g != nil {
		t.Fatalf("Gauge over a counter name = %p, want nil discarding handle", g)
	}

	// The reverse directions too: gauge and histogram names are equally
	// protected.
	r.Gauge("lvl")
	if _, err := r.CounterErr("lvl"); err == nil {
		t.Error("CounterErr over a gauge name did not error")
	}
	r.Histogram("lat", nil)
	if _, err := r.GaugeErr("lat"); err == nil {
		t.Error("GaugeErr over a histogram name did not error")
	}
	if _, err := r.HistogramErr("lvl", nil); err == nil {
		t.Error("HistogramErr over a gauge name did not error")
	}

	// The mismatch never disturbed the original: exactly one series per
	// name in the exposition, with its original kind.
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "# TYPE ipex_dup "); got != 1 {
		t.Errorf("dup has %d TYPE lines, want exactly 1:\n%s", got, out)
	}
	if !strings.Contains(out, "# TYPE ipex_dup counter") {
		t.Errorf("dup lost its counter kind:\n%s", out)
	}
	if r.Counter("dup").Load() != 1 {
		t.Error("original counter value disturbed by the mismatched registrations")
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", stats.LinearBounds(0, 10, 5))
	for _, v := range []float64{1, 3, 3, 9, 42} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.N != 5 || s.Sum != 58 || s.MinV != 1 || s.MaxV != 42 {
		t.Fatalf("snapshot n=%d sum=%g min=%g max=%g", s.N, s.Sum, s.MinV, s.MaxV)
	}
	// Snapshot is a deep copy: mutating it must not touch the live series.
	s.Counts[1] = 999
	if h.Snapshot().Counts[1] == 999 {
		t.Error("snapshot shares Counts with the live histogram")
	}
	// Same handle by name.
	r.Histogram("lat", nil).Observe(2)
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6 (same handle by name)", h.Count())
	}
}

func TestNilHistogramDiscards(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 {
		t.Error("nil histogram retained a value")
	}
	s := h.Snapshot()
	if s.N != 0 || len(s.Bounds) == 0 {
		t.Error("nil histogram snapshot not an empty default-bounds histogram")
	}
	var r *Registry
	if r.Histogram("x", nil) != nil {
		t.Error("nil registry returned a live histogram")
	}
}

// TestConcurrentHistogramObservation is the -race coverage of concurrent
// observation: N goroutines interleave Observe with scrapes (Snapshot and
// WriteProm), and the final count and sum must be exact.
func TestConcurrentHistogramObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 1e-4)
				if i%100 == 0 {
					_ = h.Snapshot()
					_ = r.WriteProm(&strings.Builder{})
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.N != workers*per {
		t.Fatalf("observed %d values, want %d", s.N, workers*per)
	}
	want := float64(per) * (0 + 1 + 2 + 3) * 1e-4 * float64(workers/4)
	if diff := s.Sum - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
}

func TestWritePromHistogramFormat(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0001, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ipex_lat_seconds histogram",
		`ipex_lat_seconds_bucket{le="0.001"} 1`, // underflow folds into the first bound
		`ipex_lat_seconds_bucket{le="0.01"} 3`,  // cumulative
		`ipex_lat_seconds_bucket{le="0.1"} 4`,   // cumulative
		`ipex_lat_seconds_bucket{le="+Inf"} 5`,  // total
		"ipex_lat_seconds_sum 5.0601",
		"ipex_lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, out)
		}
	}
}

func TestFakeClock(t *testing.T) {
	var c FakeClock
	if c.Now() != 0 {
		t.Fatal("fake clock does not start at zero")
	}
	c.Advance(250 * time.Millisecond)
	c.Advance(time.Second)
	if got := c.Now(); got != 1250*time.Millisecond {
		t.Fatalf("Now = %v, want 1.25s", got)
	}
}

func TestWallClockMonotonic(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}
