package remote

import (
	"bytes"
	"testing"

	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/experiments"
	"ipex/internal/fault"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
)

// keyFor computes the cell key runAll would assign the cell — the ground
// truth EncodeCell must round-trip to.
func keyFor(t *testing.T, app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config) string {
	t.Helper()
	id, err := experiments.NewConfigIdentity(cfg)
	if err != nil {
		t.Fatalf("NewConfigIdentity: %v", err)
	}
	return experiments.CellIdentity{
		App:       app,
		Scale:     scale,
		TraceSeed: seed,
		TraceName: tr.Name,
		TraceLen:  len(tr.Samples),
		Config:    id,
	}.Key()
}

func defaultTrace() *power.Trace {
	return power.Generate(power.RFHome, power.DefaultTraceSamples, 1)
}

// encodeCase is one sweep cell of the expressible battery.
type encodeCase struct {
	name  string
	app   string
	scale float64
	tr    *power.Trace
	seed  uint64
	cfg   nvp.Config
}

// remotableBattery lists the configurations a sweep actually produces,
// each of which EncodeCell must put on the wire.
func remotableBattery() []encodeCase {
	tr := defaultTrace()
	solar := power.Generate(power.Solar, power.DefaultTraceSamples, 9)

	sttram := nvp.DefaultConfig()
	sttram.NVM = energy.NVMFor(energy.STTRAM, 32<<20)

	pcm := nvp.DefaultConfig()
	pcm.NVM = energy.NVMFor(energy.PCM, 16<<20)

	bigCap := nvp.DefaultConfig()
	bigCap.Capacitor.CapacitanceFarads = 1e-6

	caches := nvp.DefaultConfig()
	caches.ICacheSize = 8 << 10
	caches.DCacheSize = 16 << 10
	caches.Ways = 4
	caches.PrefetchBufEntries = 32

	budget := nvp.DefaultConfig()
	budget.MaxCycles = 5_000_000

	flags := nvp.DefaultConfig()
	flags.Paranoid = true
	flags.RecordCycles = true
	flags.ReissueOnExit = true
	flags.GateAddressGen = true

	nopf := nvp.DefaultConfig()
	nopf.IPrefetcher = prefetch.Kind("none")
	nopf.DPrefetcher = prefetch.Kind("none")
	nopf.PrefetchToCache = false
	nopf.DupSuppress = false

	markov := nvp.DefaultConfig()
	markov.IPrefetcher = prefetch.Kind("markov")
	markov.DPrefetcher = prefetch.Kind("ghb")
	markov.InitialDegree = 4

	ideal := nvp.DefaultConfig()
	ideal.Ideal = true

	withFaults := nvp.DefaultConfig()
	withFaults.Faults = &fault.Config{Sensor: fault.SensorConfig{NoiseV: 0.01}}

	tunedIPEX := nvp.DefaultConfig().WithIPEX()
	tunedIPEX.IPEX.StepV += 0.01

	// A sensitivity sweep's baseline carries the tuned parameters with IPEX
	// detached; they still enter its identity.
	oneThreshold := nvp.DefaultConfig()
	oneThreshold.IPEX.Thresholds = core.ThresholdsFor(1, oneThreshold.Capacitor.Vbackup, oneThreshold.Capacitor.Von)

	trigger := nvp.DefaultConfig().WithIPEX()
	trigger.IPEX.ThrottleRateTrigger = 0

	ablations := nvp.DefaultConfig().WithIPEX()
	ablations.IPEX.Adaptive = false
	ablations.IPEX.LinearAdjust = true

	allFaults := nvp.DefaultConfig().WithIPEXData()
	allFaults.Paranoid = true
	allFaults.Faults = &fault.Config{
		Seed:       7,
		Sensor:     fault.SensorConfig{ADCBits: 10, VRef: 3.6, NoiseV: 0.02, DropoutProb: 0.1, StuckProb: 0.05, StuckLen: 16},
		Checkpoint: fault.CheckpointConfig{WriteFailProb: 0.05, MaxRetries: 2, MaxRollbacks: 3},
		Harvest:    fault.HarvestConfig{DropoutProb: 0.01, SpikeProb: 0.02, SpikeScale: 3, StormProb: 0.001, StormLen: 64},
	}

	return []encodeCase{
		{"default", "fft", 0.1, tr, 1, nvp.DefaultConfig()},
		{"ipex-both", "qsort", 0.1, tr, 1, nvp.DefaultConfig().WithIPEX()},
		{"ipex-data", "gsme", 0.1, tr, 1, nvp.DefaultConfig().WithIPEXData()},
		{"solar-seed9", "fft", 0.5, solar, 9, nvp.DefaultConfig()},
		{"sttram-32mb", "fft", 0.1, tr, 1, sttram},
		{"pcm", "fft", 0.1, tr, 1, pcm},
		{"capacitance", "fft", 0.1, tr, 1, bigCap},
		{"cache-geometry", "fft", 0.1, tr, 1, caches},
		{"cycle-budget", "fft", 0.1, tr, 1, budget},
		{"flag-soup", "fft", 0.1, tr, 1, flags},
		{"no-prefetch", "fft", 0.1, tr, 1, nopf},
		{"markov-ghb-degree4", "fft", 0.1, tr, 1, markov},
		{"ideal", "fft", 0.1, tr, 1, ideal},
		{"injected-faults", "fft", 0.1, tr, 1, withFaults},
		{"tuned-ipex-params", "fft", 0.1, tr, 1, tunedIPEX},
		{"baseline-one-threshold", "fft", 0.1, tr, 1, oneThreshold},
		{"zero-throttle-trigger", "fft", 0.1, tr, 1, trigger},
		{"fixed-linear-ipex", "fft", 0.1, tr, 1, ablations},
		{"every-fault-family", "fft", 0.1, tr, 1, allFaults},
	}
}

// TestEncodeCellRemotableBattery asserts each battery cell encodes to a
// request the server's own builder reconstructs under the exact cell key.
func TestEncodeCellRemotableBattery(t *testing.T) {
	for _, tc := range remotableBattery() {
		t.Run(tc.name, func(t *testing.T) {
			key := keyFor(t, tc.app, tc.scale, tc.tr, tc.seed, tc.cfg)
			body := EncodeCell(tc.app, tc.scale, tc.tr, tc.seed, tc.cfg, key)
			if body == nil {
				t.Fatal("EncodeCell declined a remotable cell")
			}
			// The encoded body must decode through the server's own path and
			// rebuild the identical key (the round trip EncodeCell performed,
			// re-done here through the public decoder).
			rq, err := DecodeRunRequest(body)
			if err != nil {
				t.Fatalf("DecodeRunRequest on own encoding: %v", err)
			}
			sp, err := rq.Build(Limits{})
			if err != nil {
				t.Fatalf("Build on own encoding: %v", err)
			}
			if got := sp.Key(tc.tr.Name, len(tc.tr.Samples)); got != key {
				t.Fatalf("server-side key = %s, want %s", got, key)
			}
		})
	}
}

// legacyBodies are the requests EncodeCell produced for the battery's first
// thirteen cells before the schema could spell IPEX tunables and faults. A
// cell the older schema could express keeps these exact bytes, so fleet
// caches and in-flight clients stay compatible.
var legacyBodies = map[string]string{
	"default":            `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"ipex-both":          `{"app":"qsort","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"both","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"ipex-data":          `{"app":"gsme","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"data","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"solar-seed9":        `{"app":"fft","scale":0.5,"source":"solar","trace_seed":9,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"sttram-32mb":        `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"STTRAM","nvm_bytes":33554432,"capacitance_farads":4.7e-7}}`,
	"pcm":                `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"PCM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"capacitance":        `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":0.000001}}`,
	"cache-geometry":     `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":8192,"dcache_bytes":16384,"ways":4,"prefetch_buf_entries":32,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"cycle-budget":       `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":5000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"flag-soup":          `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"reissue_on_exit":true,"gate_address_gen":true,"record_cycles":true,"paranoid":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"no-prefetch":        `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"none","dprefetch":"none","degree":2,"ipex":"off","prefetch_to_cache":false,"dup_suppress":false,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"markov-ghb-degree4": `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"markov","dprefetch":"ghb","degree":4,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
	"ideal":              `{"app":"fft","scale":0.1,"source":"RFHome","trace_seed":1,"config":{"iprefetch":"sequential","dprefetch":"stride","degree":2,"ipex":"off","prefetch_to_cache":true,"dup_suppress":true,"ideal":true,"max_cycles":500000000,"icache_bytes":2048,"dcache_bytes":2048,"ways":4,"prefetch_buf_entries":4,"nvm":"ReRAM","nvm_bytes":16777216,"capacitance_farads":4.7e-7}}`,
}

func TestEncodeCellLegacyBodiesUnchanged(t *testing.T) {
	seen := 0
	for _, tc := range remotableBattery() {
		want, ok := legacyBodies[tc.name]
		if !ok {
			continue
		}
		seen++
		key := keyFor(t, tc.app, tc.scale, tc.tr, tc.seed, tc.cfg)
		if got := string(EncodeCell(tc.app, tc.scale, tc.tr, tc.seed, tc.cfg, key)); got != want {
			t.Errorf("%s: request bytes moved:\n got %s\nwant %s", tc.name, got, want)
		}
	}
	if seen != len(legacyBodies) {
		t.Fatalf("battery covers %d of %d legacy bodies", seen, len(legacyBodies))
	}
}

// TestCellKeysPinned pins the content keys of four representative cells.
// ConfigIdentity hashes core.Config and fault.Config by their Go field
// names, so a wire change that leaked into either struct (a JSON tag, a
// renamed field) would re-key every journal line and cache entry; these
// literals catch it. Each cell must also reach the wire under its key.
func TestCellKeysPinned(t *testing.T) {
	tr := defaultTrace()
	ckpt := nvp.DefaultConfig().WithIPEX()
	ckpt.Paranoid = true
	ckpt.Faults = &fault.Config{Seed: 1, Checkpoint: fault.CheckpointConfig{WriteFailProb: 0.05}}
	one := nvp.DefaultConfig()
	one.IPEX.Thresholds = core.ThresholdsFor(1, one.Capacitor.Vbackup, one.Capacitor.Von)
	one = one.WithIPEX()
	for _, c := range []struct {
		name, key string
		cfg       nvp.Config
	}{
		{"default", "65ea4dd325984ada629621384d94bf6f", nvp.DefaultConfig()},
		{"ipex-both", "0fe71abb15e1822b91b2c568854e92e7", nvp.DefaultConfig().WithIPEX()},
		{"robust-ckpt-5pct", "85012c733561bb91c6b3fd4fa871ffd2", ckpt},
		{"fig16-one-threshold", "684c2d5cb5a1b31a7ba503293a3f89bc", one},
	} {
		key := keyFor(t, "fft", 0.1, tr, 1, c.cfg)
		if key != c.key {
			t.Errorf("%s: cell key = %s, want %s", c.name, key, c.key)
		}
		if EncodeCell("fft", 0.1, tr, 1, c.cfg, key) == nil {
			t.Errorf("%s: EncodeCell declined the cell", c.name)
		}
	}
}

// TestEncodeCellDeclinesInexpressible pins the graceful-degradation side:
// anything the wire schema cannot spell returns nil, so the cell runs
// locally instead of being mis-keyed remotely.
func TestEncodeCellDeclinesInexpressible(t *testing.T) {
	tr := defaultTrace()

	withFactory := nvp.DefaultConfig()
	withFactory.IPrefetcherFactory = func() prefetch.Prefetcher {
		p, _ := prefetch.New(prefetch.Kind("sequential"))
		return p
	}
	withFactory.IPrefetcherID = "custom-seq"

	ipexInstOnly := nvp.DefaultConfig().WithIPEX()
	ipexInstOnly.IPEXData = false

	tunedCap := nvp.DefaultConfig()
	tunedCap.Capacitor.Vbackup += 0.05

	customTrace := power.Generate(power.RFHome, power.DefaultTraceSamples, 1)
	customTrace.Name = "bench-recording-3"

	shortTrace := power.Generate(power.RFHome, 1000, 1)

	cases := []struct {
		name string
		tr   *power.Trace
		cfg  nvp.Config
	}{
		{"prefetcher-factory", tr, withFactory},
		{"ipex-inst-only", tr, ipexInstOnly},
		{"tuned-capacitor-vbackup", tr, tunedCap},
		{"custom-trace-name", customTrace, nvp.DefaultConfig()},
		{"foreign-trace-length", shortTrace, nvp.DefaultConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := keyFor(t, "fft", 0.1, tc.tr, 1, tc.cfg)
			if body := EncodeCell("fft", 0.1, tc.tr, 1, tc.cfg, key); body != nil {
				t.Fatalf("EncodeCell encoded an inexpressible cell: %s", body)
			}
		})
	}

	// Degenerate inputs.
	if EncodeCell("fft", 0.1, nil, 1, nvp.DefaultConfig(), "abc") != nil {
		t.Fatal("EncodeCell accepted a nil trace")
	}
	if EncodeCell("fft", 0.1, tr, 1, nvp.DefaultConfig(), "") != nil {
		t.Fatal("EncodeCell accepted an empty key")
	}
	// A wrong wantKey (any mismatch between the sweep's identity and the
	// request) must decline rather than ship a mis-keyed request.
	if EncodeCell("fft", 0.1, tr, 1, nvp.DefaultConfig(), "00000000000000000000000000000000") != nil {
		t.Fatal("EncodeCell accepted a key its round trip cannot reproduce")
	}
}

// TestEncodeCellDeterministic pins that encoding is pure: same inputs, same
// bytes (the request is part of the cell's routing identity — rendezvous
// hashing keys on the cell key, but the body must be stable too for the
// fleet cache to dedupe).
func TestEncodeCellDeterministic(t *testing.T) {
	tr := defaultTrace()
	cfg := nvp.DefaultConfig().WithIPEX()
	key := keyFor(t, "gsme", 0.25, tr, 3, cfg)
	a := EncodeCell("gsme", 0.25, tr, 3, cfg, key)
	b := EncodeCell("gsme", 0.25, tr, 3, cfg, key)
	if a == nil || !bytes.Equal(a, b) {
		t.Fatalf("EncodeCell not deterministic:\n%s\n%s", a, b)
	}
}

// Build checks prefetcher names against prefetch's kind table instead of
// constructing the prefetchers and their tables, which took 6 more
// allocations (~16 KB) per request, and the app with a lookup instead of
// listing and sorting every app name, which took one more.
func TestBuildAllocations(t *testing.T) {
	rq := RunRequest{App: "fft", Scale: 0.1, Config: &ConfigRequest{IPrefetcher: "tifs", DPrefetcher: "ghb", IPEX: "both"}}
	if _, err := rq.Build(Limits{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = rq.Build(Limits{}) }); n > 1 {
		t.Fatalf("Build made %v allocations, want at most 1", n)
	}
}
