// Package remote is the resilient client execution layer for farming sweep
// cells to an ipexd fleet, the one way to run cells off-box: a sweep
// (cmd/experiments -servers) hands each remotable cell to a Client, which
// speculates on a remote result and commits it only after verification —
// key match and sha256 over the body, the same envelope discipline as the
// result store's disk tier. Any failure (network, backpressure,
// corruption, truncation) is a retry against the fleet, and an exhausted
// retry budget degrades the cell to local arena execution: the sweep's
// output is byte-identical whether the fleet answered every cell, some, or
// none.
//
// The package also owns the /v1/run wire schema (RunRequest and its
// builder), moved here from cmd/ipexd so the client encodes requests with
// the exact code the server decodes them with: EncodeCell round-trips each
// candidate request through Build and accepts it only when the
// reconstructed cell key equals the sweep's own — a request that would not
// hash to the same identity server-side is simply not remotable and runs
// locally.
//
// Resilience stack (see DESIGN.md "Remote execution"):
//   - per-server circuit breakers driven by saturating success/failure
//     counters (the prefetchers' confidence-counter idiom, not wall time),
//     with /healthz probes gating the open → half-open transition;
//   - bounded retry budgets with deterministic key-seeded jittered backoff
//     that honor the server's Retry-After on 429/503;
//   - hedged requests racing a second replica for straggler cells (first
//     verified response wins, the loser is cancelled);
//   - response envelope verification (key + sha256 + strict decode);
//   - graceful degradation: per-cell local fallback when the budget is
//     exhausted, fleet-wide when every breaker is open.
package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"ipex/internal/energy"
	"ipex/internal/experiments"
	"ipex/internal/fault"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/workload"
)

// MaxRequestBody bounds a /v1/run body; a legitimate request is a few
// hundred bytes.
const MaxRequestBody = 1 << 20

// RunRequest is the declarative body of POST /v1/run: one simulation,
// described entirely by value — no callbacks, no host state — so every
// request has a complete content identity and can be served from the
// result cache. Omitted fields take the paper's Table-1 defaults
// (nvp.DefaultConfig). Unknown fields are rejected, not ignored: a typo'd
// knob that silently fell back to its default would hash to the wrong
// cell key and return a "hit" for a configuration the caller never asked
// for.
type RunRequest struct {
	// App names the workload (one of the 20 benchmarks).
	App string `json:"app"`
	// Scale multiplies the workload's instruction count; 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Source selects the synthetic power source (RFHome, RFOffice, solar,
	// thermal); empty means RFHome.
	Source string `json:"source,omitempty"`
	// TraceSeed seeds the synthetic power trace; 0 means 1.
	TraceSeed uint64 `json:"trace_seed,omitempty"`
	// Config overrides parts of the default system configuration.
	Config *ConfigRequest `json:"config,omitempty"`
}

// ConfigRequest is the declarative subset of nvp.Config a request may
// override. Pointer fields distinguish "leave the default" from an
// explicit false/zero.
type ConfigRequest struct {
	IPrefetcher string `json:"iprefetch,omitempty"` // sequential, markov, tifs, ampm, none
	DPrefetcher string `json:"dprefetch,omitempty"` // stride, ghb, bo, ampm, none
	Degree      int    `json:"degree,omitempty"`
	// IPEX attaches the controller: "off", "data", or "both".
	IPEX            string `json:"ipex,omitempty"`
	PrefetchToCache *bool  `json:"prefetch_to_cache,omitempty"`
	DupSuppress     *bool  `json:"dup_suppress,omitempty"`
	Ideal           bool   `json:"ideal,omitempty"`
	ReissueOnExit   bool   `json:"reissue_on_exit,omitempty"`
	GateAddressGen  bool   `json:"gate_address_gen,omitempty"`
	RecordCycles    bool   `json:"record_cycles,omitempty"`
	Paranoid        bool   `json:"paranoid,omitempty"`
	Profile         bool   `json:"profile,omitempty"`
	// MaxCycles caps simulated wall-clock time; 0 keeps the default budget.
	// The server's -cell-budget clamps it further.
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	ICacheSize         int `json:"icache_bytes,omitempty"`
	DCacheSize         int `json:"dcache_bytes,omitempty"`
	Ways               int `json:"ways,omitempty"`
	PrefetchBufEntries int `json:"prefetch_buf_entries,omitempty"`

	// NVM selects the main-memory technology (ReRAM, STTRAM, PCM) and
	// capacity; zero values keep 16 MB ReRAM.
	NVM      string `json:"nvm,omitempty"`
	NVMBytes int64  `json:"nvm_bytes,omitempty"`

	// CapacitanceFarads overrides the storage capacitor (default 0.47e-6).
	CapacitanceFarads float64 `json:"capacitance_farads,omitempty"`

	// IPEX controller tunables (core.Config). They apply whatever the ipex
	// mode is: a sensitivity sweep's baseline cell carries the same tuned
	// parameters with IPEX detached, and the cell identity hashes them
	// either way. Thresholds are volts, strictly descending, at most
	// core.MaxThresholds of them.
	Thresholds          []float64 `json:"thresholds,omitempty"`
	StepV               float64   `json:"step_v,omitempty"`
	ThrottleRateTrigger *float64  `json:"throttle_rate_trigger,omitempty"`
	Adaptive            *bool     `json:"adaptive,omitempty"`
	LinearAdjust        bool      `json:"linear_adjust,omitempty"`

	// Faults injects a deterministic fault schedule; absent means none.
	Faults *FaultRequest `json:"faults,omitempty"`
}

// FaultRequest is the wire spelling of fault.Config. Each family mirrors
// its internal/fault struct field for field, so the two convert directly
// and a fault field cannot be added without a wire name. An absent family
// injects nothing.
type FaultRequest struct {
	Seed       uint64            `json:"seed,omitempty"`
	Sensor     *SensorFaults     `json:"sensor,omitempty"`
	Checkpoint *CheckpointFaults `json:"checkpoint,omitempty"`
	Harvest    *HarvestFaults    `json:"harvest,omitempty"`
}

// SensorFaults is fault.SensorConfig on the wire.
type SensorFaults struct {
	ADCBits     int     `json:"adc_bits,omitempty"`
	VRef        float64 `json:"vref,omitempty"`
	NoiseV      float64 `json:"noise_v,omitempty"`
	DropoutProb float64 `json:"dropout_prob,omitempty"`
	StuckProb   float64 `json:"stuck_prob,omitempty"`
	StuckLen    int     `json:"stuck_len,omitempty"`
}

// CheckpointFaults is fault.CheckpointConfig on the wire.
type CheckpointFaults struct {
	WriteFailProb float64 `json:"write_fail_prob,omitempty"`
	MaxRetries    int     `json:"max_retries,omitempty"`
	MaxRollbacks  int     `json:"max_rollbacks,omitempty"`
}

// HarvestFaults is fault.HarvestConfig on the wire.
type HarvestFaults struct {
	DropoutProb float64 `json:"dropout_prob,omitempty"`
	SpikeProb   float64 `json:"spike_prob,omitempty"`
	SpikeScale  float64 `json:"spike_scale,omitempty"`
	StormProb   float64 `json:"storm_prob,omitempty"`
	StormLen    int     `json:"storm_len,omitempty"`
}

// newFaultRequest spells c for the wire, leaving zero families out.
func newFaultRequest(c fault.Config) *FaultRequest {
	f := &FaultRequest{Seed: c.Seed}
	if c.Sensor != (fault.SensorConfig{}) {
		s := SensorFaults(c.Sensor)
		f.Sensor = &s
	}
	if c.Checkpoint != (fault.CheckpointConfig{}) {
		k := CheckpointFaults(c.Checkpoint)
		f.Checkpoint = &k
	}
	if c.Harvest != (fault.HarvestConfig{}) {
		h := HarvestFaults(c.Harvest)
		f.Harvest = &h
	}
	return f
}

// config is the fault.Config f spells.
func (f *FaultRequest) config() *fault.Config {
	c := &fault.Config{Seed: f.Seed}
	if f.Sensor != nil {
		c.Sensor = fault.SensorConfig(*f.Sensor)
	}
	if f.Checkpoint != nil {
		c.Checkpoint = fault.CheckpointConfig(*f.Checkpoint)
	}
	if f.Harvest != nil {
		c.Harvest = fault.HarvestConfig(*f.Harvest)
	}
	return c
}

// Limits are the server-side bounds a request must fit in (backstops
// against one request monopolizing the worker pool).
type Limits struct {
	// MaxScale bounds RunRequest.Scale (0 = unbounded).
	MaxScale float64
	// CellBudget clamps every run's MaxCycles (0 = off), exactly like
	// cmd/experiments -cell-budget: a deterministic deadline inside
	// simulated time, part of the cell's identity.
	CellBudget uint64
}

// Spec is a validated, normalized request: the effective observer-free
// config, its content identity, and the trace coordinates.
type Spec struct {
	App      string
	Scale    float64
	Source   power.Source
	Seed     uint64
	Config   nvp.Config
	Identity experiments.ConfigIdentity
}

// Key derives the cell key the server will file the result under, given
// the trace the spec's coordinates generate. It is the same
// experiments.CellIdentity construction the sweep journal uses — one key
// schema across journal, cache, and wire.
func (sp Spec) Key(traceName string, traceLen int) string {
	return experiments.CellIdentity{
		App:       sp.App,
		Scale:     sp.Scale,
		TraceSeed: sp.Seed,
		TraceName: traceName,
		TraceLen:  traceLen,
		Config:    sp.Identity,
	}.Key()
}

// DecodeRunRequest parses a /v1/run body: at most MaxRequestBody bytes,
// unknown fields rejected. It is the single decoder for the endpoint — the
// server calls it, and FuzzRunRequest fuzzes it.
func DecodeRunRequest(r io.Reader) (RunRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBody))
	// Unknown fields are a client error, not a default: a typo'd knob must
	// not silently hash to (and be served as) a different configuration.
	dec.DisallowUnknownFields()
	var rq RunRequest
	err := dec.Decode(&rq)
	return rq, err
}

// Build validates the request against the server limits and derives its
// Spec. Every error is a client error (HTTP 400).
func (rq RunRequest) Build(lim Limits) (Spec, error) {
	var sp Spec

	if rq.App == "" {
		return sp, fmt.Errorf("missing app (want one of %s)", strings.Join(workload.Names(), ", "))
	}
	found := false
	for _, n := range workload.Names() {
		if n == rq.App {
			found = true
			break
		}
	}
	if !found {
		return sp, fmt.Errorf("unknown app %q (want one of %s)", rq.App, strings.Join(workload.Names(), ", "))
	}
	sp.App = rq.App

	sp.Scale = rq.Scale
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	if !(sp.Scale > 0) || math.IsInf(sp.Scale, 0) {
		return sp, fmt.Errorf("scale must be a positive finite number, got %g", rq.Scale)
	}
	if lim.MaxScale > 0 && sp.Scale > lim.MaxScale {
		return sp, fmt.Errorf("scale %g exceeds this server's -max-scale %g", sp.Scale, lim.MaxScale)
	}

	srcName := rq.Source
	if srcName == "" {
		srcName = "RFHome"
	}
	src, err := power.ParseSource(srcName)
	if err != nil {
		return sp, err
	}
	sp.Source = src

	sp.Seed = rq.TraceSeed
	if sp.Seed == 0 {
		sp.Seed = 1
	}

	cfg := nvp.DefaultConfig()
	if c := rq.Config; c != nil {
		if c.IPrefetcher != "" {
			if err := prefetch.Check(prefetch.Kind(c.IPrefetcher)); err != nil {
				return sp, err
			}
			cfg.IPrefetcher = prefetch.Kind(c.IPrefetcher)
		}
		if c.DPrefetcher != "" {
			if err := prefetch.Check(prefetch.Kind(c.DPrefetcher)); err != nil {
				return sp, err
			}
			cfg.DPrefetcher = prefetch.Kind(c.DPrefetcher)
		}
		if c.Degree != 0 {
			cfg.InitialDegree = c.Degree
		}
		switch c.IPEX {
		case "", "off":
		case "data":
			cfg = cfg.WithIPEXData()
		case "both":
			cfg = cfg.WithIPEX()
		default:
			return sp, fmt.Errorf("unknown ipex mode %q (want off, data, both)", c.IPEX)
		}
		if c.PrefetchToCache != nil {
			cfg.PrefetchToCache = *c.PrefetchToCache
		}
		if c.DupSuppress != nil {
			cfg.DupSuppress = *c.DupSuppress
		}
		cfg.Ideal = c.Ideal
		cfg.ReissueOnExit = c.ReissueOnExit
		cfg.GateAddressGen = c.GateAddressGen
		cfg.RecordCycles = c.RecordCycles
		cfg.Paranoid = c.Paranoid
		cfg.Profile = c.Profile
		if c.MaxCycles != 0 {
			cfg.MaxCycles = c.MaxCycles
		}
		if c.ICacheSize != 0 {
			cfg.ICacheSize = c.ICacheSize
		}
		if c.DCacheSize != 0 {
			cfg.DCacheSize = c.DCacheSize
		}
		if c.Ways != 0 {
			cfg.Ways = c.Ways
		}
		if c.PrefetchBufEntries != 0 {
			cfg.PrefetchBufEntries = c.PrefetchBufEntries
		}
		if c.NVM != "" || c.NVMBytes != 0 {
			tech := energy.ReRAM
			switch c.NVM {
			case "", "ReRAM":
			case "STTRAM":
				tech = energy.STTRAM
			case "PCM":
				tech = energy.PCM
			default:
				return sp, fmt.Errorf("unknown nvm technology %q (want ReRAM, STTRAM, PCM)", c.NVM)
			}
			size := c.NVMBytes
			if size == 0 {
				size = 16 << 20
			}
			cfg.NVM = energy.NVMFor(tech, size)
		}
		if c.CapacitanceFarads != 0 {
			cfg.Capacitor.CapacitanceFarads = c.CapacitanceFarads
		}
		if len(c.Thresholds) > 0 {
			cfg.IPEX.Thresholds = c.Thresholds
		}
		if c.StepV != 0 {
			cfg.IPEX.StepV = c.StepV
		}
		if c.ThrottleRateTrigger != nil {
			cfg.IPEX.ThrottleRateTrigger = *c.ThrottleRateTrigger
		}
		if c.Adaptive != nil {
			cfg.IPEX.Adaptive = *c.Adaptive
		}
		cfg.IPEX.LinearAdjust = c.LinearAdjust
		if c.Faults != nil {
			cfg.Faults = c.Faults.config()
		}
	}
	// cfg.Validate checks the controller only when IPEX is attached, but the
	// tunables are part of every cell's identity; the wire never detaches
	// cfg.IPEX.Enabled, so this checks them whatever the mode.
	if err := cfg.IPEX.Validate(); err != nil {
		return sp, err
	}
	// The server's deterministic cycle budget clamps — and therefore enters
	// — the cell's identity, exactly like a sweep's -cell-budget.
	if lim.CellBudget > 0 && (cfg.MaxCycles == 0 || cfg.MaxCycles > lim.CellBudget) {
		cfg.MaxCycles = lim.CellBudget
	}
	if err := cfg.Validate(); err != nil {
		return sp, err
	}
	sp.Config = cfg

	// Declarative requests cannot install factories, so this only fails if
	// the schema above ever grows one — at which point the refusal (HTTP
	// 400, never cached) is exactly what key soundness demands.
	sp.Identity, err = experiments.NewConfigIdentity(cfg)
	if err != nil {
		return sp, err
	}
	return sp, nil
}
