// Package fault is the simulator's deterministic fault-injection layer and
// runtime invariant vocabulary.
//
// The paper's evaluation assumes three ideal components: a perfect voltage
// monitor driving IPEX's threshold crossings, atomically-committing JIT
// checkpoints, and a clean harvested-power trace. Real deployments violate
// all three — ADCs quantize and pick up noise, NVM writes tear under a
// collapsing rail, and ambient sources brown out and spike. This package
// models each non-ideality as a seeded injector family:
//
//   - Sensor: an ADC model between the capacitor and the IPEX controllers
//     (quantization, additive Gaussian noise, dropped samples, stuck-at
//     windows). Only IPEX's observations go through it; the backup trigger
//     stays on the dedicated analog comparator a real EHS uses for the
//     die-or-checkpoint decision.
//   - Checkpoint: per-block backup-write failures with detect-and-retry and
//     a counted rollback (full re-walk) when a block exhausts its retries.
//     Correctness is preserved — the walk always reaches a consistent
//     snapshot — while every failed attempt's energy and cycles are charged.
//   - Harvest: per-sample anomalies layered on the replayed power trace —
//     dropouts, spikes, and multi-sample brownout storms — computed as a
//     pure function of the absolute sample index so replay stays exact.
//
// Every random decision comes from internal/rng streams derived from one
// Seed, so the same (seed, config) pair produces the identical fault
// schedule, identical Result, and identical trace events on every run.
//
// The package also defines the Report/Violation types the simulator's
// paranoid invariant checker (nvp.Config.Paranoid) returns in a Result:
// structured diagnostics instead of a silently corrupted sweep.
package fault

import (
	"fmt"
	"math"
)

// Family seed salts: each injector family derives its stream from
// Config.Seed mixed with a distinct constant, so enabling one family never
// perturbs another family's schedule.
const (
	seedSensor     = 0xA11CE5E2504B1e5
	seedCheckpoint = 0xC4EC4901711FA17
	seedHarvest    = 0x4A12E57A2071A1E
)

// SensorConfig models the voltage monitor IPEX reads: an ADC with finite
// resolution, input-referred noise, and sample-level failure modes. The
// zero value is an ideal sensor (no injection).
type SensorConfig struct {
	// ADCBits quantizes readings to 2^bits levels over [0, VRef].
	// 0 disables quantization (ideal resolution).
	ADCBits int
	// VRef is the converter's full-scale voltage; 0 means the system
	// supplies its capacitor's Vmax.
	VRef float64
	// NoiseV is the standard deviation (volts) of additive Gaussian noise
	// applied before quantization. 0 disables it.
	NoiseV float64
	// DropoutProb is the per-sample probability the conversion is lost and
	// the monitor repeats its previous reading.
	DropoutProb float64
	// StuckProb is the per-sample probability the output register freezes
	// at its current value for StuckLen samples.
	StuckProb float64
	// StuckLen is the stuck-at window length in samples (0 means the
	// default, DefaultStuckLen).
	StuckLen int
}

// DefaultStuckLen is the stuck-at window applied when StuckLen is 0.
const DefaultStuckLen = 8

// Active reports whether any sensor non-ideality is configured.
func (c SensorConfig) Active() bool {
	return c.ADCBits > 0 || c.NoiseV > 0 || c.DropoutProb > 0 || c.StuckProb > 0
}

// CheckpointConfig models non-atomic JIT-checkpoint writes: each dirty-block
// backup write can fail (a torn NVM write detected by the write-verify pulse)
// and is retried; a block that exhausts its retries forces a rollback — the
// writer restarts the whole walk so the snapshot it commits is consistent.
// The zero value disables injection.
type CheckpointConfig struct {
	// WriteFailProb is the per-attempt probability a checkpoint block write
	// fails verification.
	WriteFailProb float64
	// MaxRetries bounds consecutive retries of one block before the walk
	// rolls back (0 means DefaultMaxRetries; at most RetriesCap).
	MaxRetries int
	// MaxRollbacks bounds full-walk restarts per outage; beyond it the
	// remaining writes are forced to succeed so the simulation always
	// terminates (0 means DefaultMaxRollbacks). With any WriteFailProb < 1
	// the bound is astronomically unlikely to be reached; it exists so a
	// WriteFailProb of exactly 1 stays a usable worst-case experiment.
	// At most RollbacksCap.
	MaxRollbacks int
}

// Default retry/rollback bounds and their caps (see CheckpointConfig). The
// caps bound the work of one outage's checkpoint walk, which runs to
// completion without consulting the cycle budget: with WriteFailProb 1 it
// costs about (MaxRetries+1)*MaxRollbacks failed writes before the forced
// pass.
const (
	DefaultMaxRetries   = 3
	DefaultMaxRollbacks = 8
	RetriesCap          = 64
	RollbacksCap        = 64
)

// Active reports whether checkpoint-write injection is configured.
func (c CheckpointConfig) Active() bool { return c.WriteFailProb > 0 }

// HarvestConfig models hostile input-energy conditions layered on a power
// trace, per 10 µs sample: dropouts (a sample delivers nothing), spikes
// (a sample is multiplied by SpikeScale), and brownout storms (a run of
// consecutive zeroed samples). The zero value disables injection.
type HarvestConfig struct {
	// DropoutProb zeroes a single sample with this probability.
	DropoutProb float64
	// SpikeProb multiplies a sample by SpikeScale with this probability.
	SpikeProb float64
	// SpikeScale is the spike multiplier (0 means DefaultSpikeScale).
	SpikeScale float64
	// StormProb is the per-sample probability a brownout storm starts; the
	// storm zeroes 1..StormLen consecutive samples.
	StormProb float64
	// StormLen is the maximum storm length in samples (0 means
	// DefaultStormLen; capped at MaxStormLen).
	StormLen int
}

// Storm-length defaults and bound (see HarvestConfig). MaxStormLen bounds
// the per-sample lookback the pure-function evaluation scans.
const (
	DefaultSpikeScale = 4.0
	DefaultStormLen   = 32
	MaxStormLen       = 1024
)

// Active reports whether any harvest anomaly is configured.
func (c HarvestConfig) Active() bool {
	return c.DropoutProb > 0 || c.SpikeProb > 0 || c.StormProb > 0
}

// Config assembles one deterministic fault schedule. The zero value injects
// nothing; a Config with no active family behaves exactly like no Config.
type Config struct {
	// Seed selects the fault schedule. The same (Seed, Config) always
	// reproduces the identical schedule; 0 means DefaultSeed.
	Seed uint64

	Sensor     SensorConfig
	Checkpoint CheckpointConfig
	Harvest    HarvestConfig
}

// DefaultSeed is used when Config.Seed is 0.
const DefaultSeed = 1

// Active reports whether any injector family is configured.
func (c *Config) Active() bool {
	if c == nil {
		return false
	}
	return c.Sensor.Active() || c.Checkpoint.Active() || c.Harvest.Active()
}

// prob validates one probability field.
func prob(name string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("fault: %s must be in [0,1], got %g", name, p)
	}
	return nil
}

// Validate reports configuration errors. NaN is rejected explicitly
// everywhere: it fails every comparison, so a NaN probability or noise level
// would otherwise slip through range checks and poison the schedule.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	s := c.Sensor
	if s.ADCBits < 0 || s.ADCBits > 24 {
		return fmt.Errorf("fault: sensor ADC bits %d out of [0,24]", s.ADCBits)
	}
	if math.IsNaN(s.VRef) || math.IsInf(s.VRef, 0) || s.VRef < 0 {
		return fmt.Errorf("fault: sensor VRef must be a non-negative finite voltage, got %g", s.VRef)
	}
	if math.IsNaN(s.NoiseV) || math.IsInf(s.NoiseV, 0) || s.NoiseV < 0 {
		return fmt.Errorf("fault: sensor noise must be a non-negative finite voltage, got %g", s.NoiseV)
	}
	if err := prob("sensor dropout probability", s.DropoutProb); err != nil {
		return err
	}
	if err := prob("sensor stuck probability", s.StuckProb); err != nil {
		return err
	}
	if s.StuckLen < 0 {
		return fmt.Errorf("fault: sensor stuck length must be >= 0, got %d", s.StuckLen)
	}
	k := c.Checkpoint
	if err := prob("checkpoint write-failure probability", k.WriteFailProb); err != nil {
		return err
	}
	if k.MaxRetries < 0 || k.MaxRetries > RetriesCap {
		return fmt.Errorf("fault: checkpoint max retries %d out of [0,%d]", k.MaxRetries, RetriesCap)
	}
	if k.MaxRollbacks < 0 || k.MaxRollbacks > RollbacksCap {
		return fmt.Errorf("fault: checkpoint max rollbacks %d out of [0,%d]", k.MaxRollbacks, RollbacksCap)
	}
	h := c.Harvest
	if err := prob("harvest dropout probability", h.DropoutProb); err != nil {
		return err
	}
	if err := prob("harvest spike probability", h.SpikeProb); err != nil {
		return err
	}
	if err := prob("harvest storm probability", h.StormProb); err != nil {
		return err
	}
	if math.IsNaN(h.SpikeScale) || math.IsInf(h.SpikeScale, 0) || h.SpikeScale < 0 {
		return fmt.Errorf("fault: harvest spike scale must be non-negative and finite, got %g", h.SpikeScale)
	}
	if h.StormLen < 0 || h.StormLen > MaxStormLen {
		return fmt.Errorf("fault: harvest storm length %d out of [0,%d]", h.StormLen, MaxStormLen)
	}
	return nil
}

// seed returns the effective schedule seed.
func (c *Config) seed() uint64 {
	if c.Seed == 0 {
		return DefaultSeed
	}
	return c.Seed
}

// Stats counts the injected faults of one run. A Result carries it (as
// Result.Faults) whenever a Config was active.
type Stats struct {
	// SensorSamples counts monitor reads; Dropouts and Stuck count samples
	// replaced by the previous/frozen reading.
	SensorSamples  uint64
	SensorDropouts uint64
	SensorStuck    uint64

	// CheckpointWriteFailures counts failed backup-write attempts (initial
	// attempts and retries alike); CheckpointRetries counts the re-issued
	// writes; CheckpointRollbacks counts full re-walks of the dirty set;
	// CheckpointDiscarded counts committed block writes a rollback threw
	// away; CheckpointForced counts writes committed by the MaxRollbacks
	// bound.
	CheckpointWriteFailures uint64
	CheckpointRetries       uint64
	CheckpointRollbacks     uint64
	CheckpointDiscarded     uint64
	CheckpointForced        uint64
	// RetryCycles and RetryNJ are the extra backup cost attributable to
	// failed writes — every torn attempt plus every committed write a
	// rollback later discarded (what a fault-free checkpoint would not have
	// spent).
	RetryCycles uint64
	RetryNJ     float64

	// Harvest anomaly counts, per affected 10 µs sample.
	HarvestDropouts uint64
	HarvestSpikes   uint64
	HarvestStorms   uint64
}

// Violation is one failed runtime invariant check.
type Violation struct {
	// Check names the invariant ("energy_balance", "forward_progress", ...).
	Check string
	// Cycle and PowerCycle locate the failure in simulated time.
	Cycle      uint64
	PowerCycle uint64
	// Detail is a human-readable diagnosis with the observed values.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s @cycle=%d pcycle=%d: %s", v.Check, v.Cycle, v.PowerCycle, v.Detail)
}

// Report is the paranoid invariant checker's run-level output.
type Report struct {
	// Checks counts individual invariant evaluations that ran.
	Checks uint64
	// Violations lists every failed check, in occurrence order (capped at
	// MaxViolations so a systematically broken run cannot grow unbounded).
	Violations []Violation
	// Truncated is set when violations beyond MaxViolations were dropped.
	Truncated bool
	// LedgerNJ is the shadow drain ledger's whole-run total, published only
	// when the attribution profiler ran alongside the checker so tests can
	// assert the two ledgers agree bit-for-bit; zero (and omitted from
	// JSON) otherwise.
	LedgerNJ float64 `json:",omitempty"`
}

// MaxViolations bounds Report.Violations.
const MaxViolations = 64

// Clean reports whether every check passed.
func (r *Report) Clean() bool { return r == nil || len(r.Violations) == 0 }

// Add records a violation (respecting the MaxViolations cap).
func (r *Report) Add(check string, cycle, pcycle uint64, format string, args ...any) {
	if len(r.Violations) >= MaxViolations {
		r.Truncated = true
		return
	}
	r.Violations = append(r.Violations, Violation{
		Check:      check,
		Cycle:      cycle,
		PowerCycle: pcycle,
		Detail:     fmt.Sprintf(format, args...),
	})
}

// Summary renders a one-line digest ("clean, 123 checks" or the first
// violation plus a count).
func (r *Report) Summary() string {
	if r == nil {
		return "invariants: not checked"
	}
	if r.Clean() {
		return fmt.Sprintf("invariants: clean (%d checks)", r.Checks)
	}
	return fmt.Sprintf("invariants: %d VIOLATION(S) in %d checks; first: %s",
		len(r.Violations), r.Checks, r.Violations[0])
}
