package experiments

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
)

// fakeFleet is a RemoteRunner and RemotePrefetcher that declines every
// cell, so cells run locally, while it records the batches it was offered.
type fakeFleet struct {
	mu      sync.Mutex
	batches [][]harness.RemoteCell
}

func (f *fakeFleet) RunRemote(string, string, []byte) (nvp.Result, bool, error) {
	return nvp.Result{}, false, nil
}

func (f *fakeFleet) PrefetchRemote(cells []harness.RemoteCell) func() {
	f.mu.Lock()
	f.batches = append(f.batches, cells)
	f.mu.Unlock()
	return func() {}
}

// memSink is a journal that keeps nothing.
type memSink struct{}

func (memSink) Append(harness.Entry) error { return nil }

// An experiment is one pool batch: one prefetch offering each remote-bound
// key once, one encode per distinct key, and nothing encoded or prefetched
// for keys an earlier experiment already settled.
func TestExperimentBatchShape(t *testing.T) {
	fleet := &fakeFleet{}
	sup := &harness.Supervisor{Journal: memSink{}, Remote: fleet}
	var mu sync.Mutex
	encodes := make(map[string]int)
	o := Options{
		Scale:       0.02,
		Apps:        []string{"fft", "qsort"},
		Parallelism: 2,
		Sup:         sup,
		RemoteEncode: func(app string, _ float64, _ *power.Trace, _ uint64, _ nvp.Config, key string) []byte {
			mu.Lock()
			encodes[key]++
			mu.Unlock()
			return []byte(app)
		},
	}
	check := func(name string, wantBatches int) {
		t.Helper()
		if got := len(fleet.batches); got != wantBatches {
			t.Fatalf("after %s: %d PrefetchRemote calls, want %d", name, got, wantBatches)
		}
		for key, n := range encodes {
			if n != 1 {
				t.Fatalf("after %s: key %s encoded %d times, want once", name, key, n)
			}
		}
	}

	if _, err := Fig22(o); err != nil {
		t.Fatal(err)
	}
	check("Fig22", 1)
	if got, want := len(fleet.batches[0]), len(encodes); got != want {
		t.Fatalf("Fig22 prefetched %d cells, want its %d distinct keys", got, want)
	}
	if _, err := Fig10(o); err != nil {
		t.Fatal(err)
	}
	check("Fig10", 2)
	before := len(encodes)
	if _, err := Fig12(o); err != nil {
		t.Fatal(err)
	}
	check("Fig12", 2)
	if len(encodes) != before {
		t.Fatalf("Fig12 encoded %d new keys, want none: Fig10 settled them all", len(encodes)-before)
	}
}

// refusingFleet answers every cell with an error, as a fleet does for a
// refused cell under -no-local-fallback.
type refusingFleet struct{ calls atomic.Int64 }

func (f *refusingFleet) RunRemote(string, string, []byte) (nvp.Result, bool, error) {
	f.calls.Add(1)
	return nvp.Result{}, true, errors.New("refused")
}

// A failed cell aborts its experiment without running the rest of the
// batch: one pool batch spans every configuration, so without the abort an
// unrecoverable error would cost the whole experiment.
func TestExperimentFailureStopsBatch(t *testing.T) {
	fleet := &refusingFleet{}
	o := Options{
		Scale:       0.02,
		Apps:        []string{"fft", "qsort"},
		Parallelism: 1,
		Sup:         &harness.Supervisor{Journal: memSink{}, Remote: fleet},
		RemoteEncode: func(app string, _ float64, _ *power.Trace, _ uint64, _ nvp.Config, _ string) []byte {
			return []byte(app)
		},
	}
	_, err := Fig22(o)
	if err == nil || !strings.Contains(err.Error(), "Figure 22: IPEX speedup vs. capacitor size (µF) [0.47]: refused") {
		t.Fatalf("Fig22 error = %v, want the first point's refusal", err)
	}
	// One worker: the failed cell, plus at most one cell the dispatcher
	// handed over as the abort landed.
	if n := fleet.calls.Load(); n > 2 {
		t.Fatalf("%d cells ran after the first failure of a %d-cell batch, want at most 1", n-1, 7*2*len(o.Apps))
	}
}
