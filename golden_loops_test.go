package ipex

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ipex/internal/fault"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/workload"
)

// The loop golden pins every corner the simulator's per-instruction loop
// branches on — observers (paranoid ledger, profiler, fault injectors) and
// ablations (buffer mode, DupSuppress off, ReissueOnExit, GateAddressGen) —
// against testdata/golden_loops.json. Each case runs twice: through an
// arena over the memoized trace stream (the *workload.Cursor path every
// sweep cell takes) and through nvp.Run over a freshly generated workload
// (the Generator path custom workloads and trace files take). The two must
// be reflect.DeepEqual to each other and to the fixture.
//
// The fixture was captured before the simulator's loops were merged into
// one; regenerate it (`go test -run TestGoldenLoops -update .`) only for an
// intentional behaviour change.
const goldenLoopsPath = "testdata/golden_loops.json"

const goldenLoopsScale = 0.25

var goldenLoopsApps = []string{"gsme", "qsort", "jpegd"}

func goldenLoopConfigs() []struct {
	name string
	cfg  nvp.Config
} {
	def := nvp.DefaultConfig()
	both := def.WithIPEX()

	bufferMode := def
	bufferMode.PrefetchToCache = false
	paranoid := both
	paranoid.Paranoid = true
	profiled := both
	profiled.Profile = true
	reissue := both
	reissue.ReissueOnExit = true
	// The gate only has a subject when the prefetcher charges address-
	// generation energy, which the default sequential/stride pair does not.
	gated := both
	gated.DPrefetcher = GHBPrefetcher
	gated.GateAddressGen = true
	noDupSuppress := def
	noDupSuppress.DupSuppress = false
	faulted := both
	faulted.Faults = &fault.Config{
		Seed:       7,
		Sensor:     fault.SensorConfig{ADCBits: 6},
		Harvest:    fault.HarvestConfig{DropoutProb: 0.05},
		Checkpoint: fault.CheckpointConfig{WriteFailProb: 0.1},
	}

	return []struct {
		name string
		cfg  nvp.Config
	}{
		{"default", def},
		{"ipex-both", both},
		{"no-prefetch", def.WithoutPrefetch()},
		{"buffer-mode", bufferMode},
		{"paranoid", paranoid},
		{"profile", profiled},
		{"reissue-on-exit", reissue},
		{"gate-address-gen", gated},
		{"no-dup-suppress", noDupSuppress},
		{"faults", faulted},
	}
}

func TestGoldenLoops(t *testing.T) {
	trace := power.Generate(power.RFHome, power.DefaultTraceSamples, 1)
	arena := NewArena()
	var got []goldenRun
	for _, c := range goldenLoopConfigs() {
		for _, app := range goldenLoopsApps {
			viaCursor, err := arena.Run(app, goldenLoopsScale, trace, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s cursor path: %v", c.name, app, err)
			}
			wl, err := workload.New(app, goldenLoopsScale)
			if err != nil {
				t.Fatal(err)
			}
			viaGenerator, err := nvp.Run(wl, trace, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s generator path: %v", c.name, app, err)
			}
			if !reflect.DeepEqual(viaCursor, viaGenerator) {
				t.Errorf("%s/%s: cursor and generator paths diverged\ncursor:    %s\ngenerator: %s",
					c.name, app, mustJSON(viaCursor), mustJSON(viaGenerator))
			}
			got = append(got, goldenRun{App: app, Config: c.name, Result: viaCursor})
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLoopsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d loop golden runs to %s", len(got), goldenLoopsPath)
		return
	}

	data, err := os.ReadFile(goldenLoopsPath)
	if err != nil {
		t.Fatalf("reading loop golden file (generate with -update): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenLoopsPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("loop golden run count changed: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].App != want[i].App || got[i].Config != want[i].Config {
			t.Fatalf("loop golden order changed at %d: got %s/%s, want %s/%s",
				i, got[i].App, got[i].Config, want[i].App, want[i].Config)
		}
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Errorf("%s/%s: Result drifted from the pinned loop behaviour\ngot:  %s\nwant: %s",
				got[i].App, got[i].Config, mustJSON(got[i].Result), mustJSON(want[i].Result))
		}
	}
}
