package nvp

import (
	"reflect"
	"testing"

	"ipex/internal/fault"
	"ipex/internal/prefetch"
	"ipex/internal/workload"
)

// arenaTestConfigs is a mixed sequence of configurations deliberately
// ordered so consecutive runs sometimes reuse every arena component,
// sometimes only a few (geometry change, prefetcher change, IPEX toggle).
func arenaTestConfigs() []Config {
	base := DefaultConfig()
	small := DefaultConfig()
	small.ICacheSize = base.ICacheSize / 2
	small.DPrefetcher = prefetch.KindMarkov
	return []Config{
		base,
		base, // full reuse
		base.WithIPEX(),
		base.WithoutPrefetch(),
		small,
		base.WithIPEXData(),
		base, // back to the start
	}
}

// TestArenaMatchesFreshRuns pins the arena's core contract: a recycled
// system produces results bit-identical to a freshly constructed one, for
// every configuration transition in a mixed sweep.
func TestArenaMatchesFreshRuns(t *testing.T) {
	apps := []string{"gsme", "qsort"}
	a := NewArena()
	for _, app := range apps {
		for i, cfg := range arenaTestConfigs() {
			fresh, err := Run(workload.MustNew(app, 0.1), testTrace(), cfg)
			if err != nil {
				t.Fatalf("%s cfg %d fresh: %v", app, i, err)
			}
			recycled, err := a.Run(workload.MustNew(app, 0.1), testTrace(), cfg)
			if err != nil {
				t.Fatalf("%s cfg %d arena: %v", app, i, err)
			}
			if !reflect.DeepEqual(fresh, recycled) {
				t.Errorf("%s cfg %d: arena result diverged from fresh run\nfresh:  %+v\narena:  %+v",
					app, i, fresh, recycled)
			}
		}
	}
}

// TestZeroAllocRun pins the tentpole allocation contract: once the arena is
// warm, a steady-state run on a stable configuration allocates nothing — no
// per-run state, no workload copy, no result scaffolding.
func TestZeroAllocRun(t *testing.T) {
	var store workload.Store
	st, err := store.Stream("gsme", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace()
	bufferMode := DefaultConfig()
	bufferMode.PrefetchToCache = false
	paranoid := DefaultConfig()
	paranoid.Paranoid = true
	reissue := DefaultConfig().WithIPEX()
	reissue.ReissueOnExit = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"ipex-both", DefaultConfig().WithIPEX()},
		{"no-prefetch", DefaultConfig().WithoutPrefetch()},
		{"buffer-mode", bufferMode},
		{"paranoid", paranoid},
		{"reissue-on-exit", reissue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena()
			if _, err := a.RunStream(st, tr, tc.cfg); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(5, func() {
				if _, err := a.RunStream(st, tr, tc.cfg); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("steady-state run allocated %v times, want 0", n)
			}
		})
	}
}

// TestArenaRunStream pins the cursor path: running a shared immutable
// Stream through the arena matches a plain Run over the same accesses.
func TestArenaRunStream(t *testing.T) {
	var store workload.Store
	st, err := store.Stream("gsme", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	fresh, err := Run(workload.MustNew("gsme", 0.1), testTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	for i := 0; i < 3; i++ {
		got, err := a.RunStream(st, testTrace(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("iteration %d: stream run diverged from fresh run", i)
		}
	}
}

// TestArenaParanoidReportsOutliveRuns pins that each paranoid Result keeps
// its own invariant report: the arena's report slab never hands a slot to
// a later run, across a slab refill too.
func TestArenaParanoidReportsOutliveRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Paranoid = true
	a := NewArena()
	var reps []*fault.Report
	var want []fault.Report
	for i := 0; i < 20; i++ {
		r, err := a.Run(workload.MustNew("fft", 0.02+0.001*float64(i%3)), testTrace(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Invariants == nil || r.Invariants.Checks == 0 {
			t.Fatalf("run %d: no invariant report", i)
		}
		reps = append(reps, r.Invariants)
		want = append(want, *r.Invariants)
	}
	for i, rep := range reps {
		if !reflect.DeepEqual(*rep, want[i]) {
			t.Errorf("run %d's report changed after later runs: %+v, want %+v", i, *rep, want[i])
		}
		for j := 0; j < i; j++ {
			if reps[j] == rep {
				t.Errorf("runs %d and %d share one report", j, i)
			}
		}
	}
}
