// Package core implements IPEX, the paper's contribution: an
// Intermittence-aware Prefetching EXtension that throttles the prefetch
// degree of an existing hardware prefetcher according to the capacitor
// voltage, so that blocks whose use would fall beyond the upcoming power
// failure are never fetched.
//
// One Controller instance manages one cache's prefetcher (the paper gives
// ICache and DCache independent register sets). The controller holds the
// paper's four registers:
//
//	R_throttled — prefetch operations suppressed this power cycle (32 bit)
//	R_total     — issued + throttled prefetch operations (32 bit)
//	R_tr        — the throttling rate computed at reboot (float)
//	R_ipd       — the initial prefetch degree (3 bit, reset target)
//
// plus the prefetcher's own R_cpd (current prefetch degree) register it
// manipulates. Crossing below a voltage threshold halves R_cpd; crossing
// back above doubles it (capped at MaxDegree). At reboot, R_throttled and
// R_total are restored from their JIT checkpoint, R_tr = R_throttled /
// R_total is computed, and every threshold moves one step down (more
// prefetching) if R_tr ≥ the trigger rate or one step up (more saving)
// otherwise.
package core

import (
	"fmt"
	"math"

	"ipex/internal/prefetch"
	"ipex/internal/trace"
)

// MaxThresholds caps Config.Thresholds. The controller walks every
// threshold on each voltage observation; the paper's sensitivity study
// (Fig. 16) uses at most three.
const MaxThresholds = 8

// Config parameterises one IPEX controller.
type Config struct {
	// Enabled turns the extension on. A disabled controller behaves as the
	// conventional prefetcher: the degree is constant at InitialDegree and
	// nothing is ever throttled.
	Enabled bool
	// InitialDegree is R_ipd, the degree restored at every reboot
	// (paper default 2).
	InitialDegree int
	// MaxDegree caps R_cpd (paper: 4, from the 3-bit R_ipd encoding).
	MaxDegree int
	// Thresholds are the initial voltage thresholds in volts, strictly
	// descending (paper default {3.30, 3.25}). Their count is the paper's
	// "V_thres count" sensitivity knob (Fig. 16); at most MaxThresholds.
	Thresholds []float64
	// StepV is the adaptive threshold adjustment step (paper default
	// 0.05 V; Fig. 24 sweeps it).
	StepV float64
	// ThrottleRateTrigger is the R_tr value at or above which thresholds
	// are lowered (paper default 5%; Fig. 25 sweeps it).
	ThrottleRateTrigger float64
	// Adaptive enables the reboot-time threshold tuning; disabling it is
	// the fixed-threshold ablation.
	Adaptive bool
	// LinearAdjust switches the degree policy from the paper's
	// halve/double to ±1 per crossing — the degree-policy ablation
	// (DESIGN.md); off by default.
	LinearAdjust bool
	// MinV/MaxV clamp adapted thresholds to the system's live band
	// (Vbackup..Von); a threshold below the backup trigger could never
	// fire (the system checkpoints and dies at Vbackup) and one above the
	// reboot voltage would throttle from the first cycle.
	MinV, MaxV float64
}

// DefaultConfig returns the paper's IPEX configuration for a live band of
// (vbackup, von) volts.
func DefaultConfig(vbackup, von float64) Config {
	return Config{
		Enabled:             true,
		InitialDegree:       2,
		MaxDegree:           prefetch.MaxDegree,
		Thresholds:          []float64{3.30, 3.25},
		StepV:               0.05,
		ThrottleRateTrigger: 0.05,
		Adaptive:            true,
		MinV:                vbackup,
		MaxV:                von,
	}
}

// ThresholdsFor spreads k thresholds evenly through the upper part of the
// operating band, reproducing the defaults for k=2 (3.30, 3.25 inside a
// 3.0–3.4 band with the default 0.05 V spacing).
func ThresholdsFor(k int, vbackup, von float64) []float64 {
	if k <= 0 {
		return nil
	}
	top := von - 0.1
	step := 0.05
	ths := make([]float64, k)
	for i := 0; i < k; i++ {
		ths[i] = top - float64(i)*step
		if ths[i] <= vbackup {
			ths[i] = vbackup + 0.01
		}
	}
	return ths
}

// Validate reports configuration errors. The NaN checks matter: every
// comparison against NaN is false, so without them a NaN step, trigger, or
// threshold would sail through the range checks below and poison the
// controller's crossing decisions at run time.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.InitialDegree < 1 || c.InitialDegree > c.MaxDegree {
		return fmt.Errorf("core: initial degree %d out of range [1,%d]", c.InitialDegree, c.MaxDegree)
	}
	if len(c.Thresholds) == 0 {
		return fmt.Errorf("core: IPEX enabled with no voltage thresholds")
	}
	if len(c.Thresholds) > MaxThresholds {
		return fmt.Errorf("core: %d voltage thresholds exceed the maximum of %d", len(c.Thresholds), MaxThresholds)
	}
	for i, t := range c.Thresholds {
		if math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 {
			return fmt.Errorf("core: threshold %d must be a positive finite voltage, got %g", i, t)
		}
	}
	for i := 1; i < len(c.Thresholds); i++ {
		if c.Thresholds[i] >= c.Thresholds[i-1] {
			return fmt.Errorf("core: thresholds must be strictly descending, got %v", c.Thresholds)
		}
	}
	if math.IsNaN(c.StepV) || math.IsInf(c.StepV, 0) || c.StepV <= 0 {
		return fmt.Errorf("core: step must be positive and finite, got %g", c.StepV)
	}
	if math.IsNaN(c.ThrottleRateTrigger) || c.ThrottleRateTrigger < 0 || c.ThrottleRateTrigger > 1 {
		return fmt.Errorf("core: throttle-rate trigger %g out of [0,1]", c.ThrottleRateTrigger)
	}
	return nil
}

// Stats reports the controller's activity over a whole run.
type Stats struct {
	// Issued and Throttled count prefetch operations across all power
	// cycles (the per-cycle R registers are summed into these).
	Issued    uint64
	Throttled uint64
	// ThresholdMoves counts adaptive adjustments, split by direction.
	MovesDown uint64
	MovesUp   uint64
	// Halvings/Doublings count degree adjustments from threshold
	// crossings.
	Halvings  uint64
	Doublings uint64
}

// ThrottlingRate returns lifetime Throttled/(Issued+Throttled).
func (s Stats) ThrottlingRate() float64 {
	tot := s.Issued + s.Throttled
	if tot == 0 {
		return 0
	}
	return float64(s.Throttled) / float64(tot)
}

// Controller is one IPEX instance.
type Controller struct {
	cfg        Config
	thresholds []float64 // live (adapted) copies
	above      []bool    // V currently above thresholds[i]?
	haveV      bool
	cpd        int // R_cpd

	// energyOf converts a voltage threshold to its exact stored-energy
	// cutoff (capacitor.EnergyCutoffNJ); cuts caches the conversion of the
	// live thresholds so ObserveEnergy replaces the hot loop's
	// per-instruction sqrt with plain compares. Refreshed whenever the
	// thresholds adapt (OnReboot).
	energyOf func(v float64) float64
	cuts     []float64

	// Volatile per-power-cycle registers.
	rThrottled uint64 // R_throttled
	rTotal     uint64 // R_total
	rTR        float64

	// JIT-checkpointed copies (NVM-resident across the outage).
	savedThrottled uint64
	savedTotal     uint64

	// tr, when non-nil, receives threshold-crossing, degree-change, and
	// adaptation events; side labels them. Crossings are rare, so the
	// per-observation fast path is untouched when tracing is off.
	tr   *trace.Tracer
	side string

	stats Stats
}

// NewController builds a controller. For a disabled config it still
// returns a functioning pass-through controller.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialDegree <= 0 {
		cfg.InitialDegree = 2
	}
	if cfg.MaxDegree <= 0 {
		cfg.MaxDegree = prefetch.MaxDegree
	}
	c := &Controller{
		cfg:        cfg,
		thresholds: append([]float64(nil), cfg.Thresholds...),
		above:      make([]bool, len(cfg.Thresholds)),
		cpd:        cfg.InitialDegree,
	}
	return c, nil
}

// MustNewController is NewController for configurations known to be valid.
func MustNewController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// SetTracer attaches an event tracer; side ("icache"/"dcache") labels the
// emitted events. A nil tracer disables emission.
func (c *Controller) SetTracer(t *trace.Tracer, side string) {
	c.tr = t
	c.side = side
}

// Reset restores the controller to its just-constructed state: pristine
// thresholds from the configuration, all registers and statistics zeroed,
// R_cpd back at R_ipd, the tracer detached, and the energy cutoffs (if an
// energyOf converter is installed) recomputed for the pristine thresholds.
// No slice is reallocated, so the run arena can recycle controllers whose
// configuration matches the next run's.
func (c *Controller) Reset() {
	copy(c.thresholds, c.cfg.Thresholds)
	for i := range c.above {
		c.above[i] = false
	}
	c.haveV = false
	c.cpd = c.cfg.InitialDegree
	c.rThrottled = 0
	c.rTotal = 0
	c.rTR = 0
	c.savedThrottled = 0
	c.savedTotal = 0
	c.stats = Stats{}
	c.tr = nil
	c.side = ""
	c.refreshCuts()
}

// Enabled reports whether the extension is active.
func (c *Controller) Enabled() bool { return c.cfg.Enabled }

// Degree returns R_cpd, the number of prefetch candidates the engine may
// issue right now.
func (c *Controller) Degree() int {
	if !c.cfg.Enabled {
		return c.cfg.InitialDegree
	}
	return c.cpd
}

// Thresholds returns the live (possibly adapted) thresholds.
func (c *Controller) Thresholds() []float64 {
	return append([]float64(nil), c.thresholds...)
}

// Stats returns a copy of the lifetime statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ThrottlingRegisters returns the current power cycle's R_throttled and
// R_total values.
func (c *Controller) ThrottlingRegisters() (throttled, total uint64) {
	return c.rThrottled, c.rTotal
}

// LastTR returns R_tr, the throttling rate computed at the most recent
// reboot.
func (c *Controller) LastTR() float64 { return c.rTR }

// Observe feeds the controller a capacitor voltage sample. Each downward
// crossing of a threshold halves R_cpd (energy saving mode); each upward
// crossing doubles it, capped at MaxDegree (high performance mode).
func (c *Controller) Observe(v float64) {
	if !c.cfg.Enabled {
		return
	}
	if !c.haveV {
		// First sample of the power cycle just records position; the
		// system boots above the thresholds, so no crossing has happened.
		for i, t := range c.thresholds {
			c.above[i] = v >= t
		}
		c.haveV = true
		return
	}
	for i, t := range c.thresholds {
		nowAbove := v >= t
		if nowAbove == c.above[i] {
			continue
		}
		c.above[i] = nowAbove
		c.traceCrossing(t, nowAbove)
		if nowAbove {
			c.double()
		} else {
			c.halve()
		}
	}
}

// traceCrossing emits a threshold-crossing event (no-op without a tracer).
func (c *Controller) traceCrossing(threshold float64, up bool) {
	if c.tr == nil {
		return
	}
	dir := int64(-1)
	if up {
		dir = 1
	}
	c.tr.Emit(trace.Event{Kind: trace.KindThresholdCross,
		Side: c.side, Value: threshold, N: dir})
}

// UseEnergyCutoffs installs a voltage→energy-cutoff converter (typically
// capacitor.EnergyCutoffNJ) so the simulator can feed ObserveEnergy the
// capacitor's stored energy directly instead of computing a voltage every
// instruction. The converter must satisfy: Voltage(e) >= v iff
// e >= f(v) — the exact equivalence capacitor.EnergyCutoffNJ provides.
func (c *Controller) UseEnergyCutoffs(f func(v float64) float64) {
	c.energyOf = f
	c.refreshCuts()
}

// refreshCuts recomputes the per-threshold energy cutoffs after the
// thresholds change (installation and reboot-time adaptation).
func (c *Controller) refreshCuts() {
	if c.energyOf == nil {
		return
	}
	if len(c.cuts) != len(c.thresholds) {
		c.cuts = make([]float64, len(c.thresholds))
	}
	for i, t := range c.thresholds {
		c.cuts[i] = c.energyOf(t)
	}
}

// ObserveEnergy is Observe for a stored-energy sample (nJ). It requires
// UseEnergyCutoffs and makes exactly the same crossing decisions Observe
// would make for the corresponding voltage, with one float compare per
// threshold and no square root.
func (c *Controller) ObserveEnergy(e float64) {
	if !c.cfg.Enabled {
		return
	}
	if !c.haveV {
		for i, cut := range c.cuts {
			c.above[i] = e >= cut
		}
		c.haveV = true
		return
	}
	for i, cut := range c.cuts {
		nowAbove := e >= cut
		if nowAbove == c.above[i] {
			continue
		}
		c.above[i] = nowAbove
		c.traceCrossing(c.thresholds[i], nowAbove)
		if nowAbove {
			c.double()
		} else {
			c.halve()
		}
	}
}

func (c *Controller) halve() {
	if c.cfg.LinearAdjust {
		if c.cpd > 0 {
			c.cpd--
		}
	} else {
		c.cpd /= 2
	}
	c.stats.Halvings++
	if c.tr != nil {
		c.tr.Emit(trace.Event{Kind: trace.KindDegreeChange,
			Side: c.side, N: int64(c.cpd), Detail: "halve"})
	}
}

func (c *Controller) double() {
	if c.cfg.LinearAdjust {
		c.cpd++
	} else if c.cpd == 0 {
		c.cpd = 1
	} else {
		c.cpd *= 2
	}
	if c.cpd > c.cfg.MaxDegree {
		c.cpd = c.cfg.MaxDegree
	}
	c.stats.Doublings++
	if c.tr != nil {
		c.tr.Emit(trace.Event{Kind: trace.KindDegreeChange,
			Side: c.side, N: int64(c.cpd), Detail: "double"})
	}
}

// Record accounts one prefetch trigger: the prefetcher wanted `requested`
// operations at its natural degree, the engine issued `issued` of them.
// R_total counts both; the shortfall is R_throttled (Fig. 7's bookkeeping).
func (c *Controller) Record(requested, issued int) {
	if issued > requested {
		requested = issued
	}
	c.rTotal += uint64(requested)
	c.rThrottled += uint64(requested - issued)
	c.stats.Issued += uint64(issued)
	c.stats.Throttled += uint64(requested - issued)
}

// Backup JIT-checkpoints R_throttled and R_total (the simulator charges the
// energy; the registers are tiny and ride along with the register-file
// checkpoint).
func (c *Controller) Backup() {
	c.savedThrottled = c.rThrottled
	c.savedTotal = c.rTotal
}

// OnReboot restores the checkpointed registers, computes R_tr, adapts the
// thresholds, and resets R_cpd to R_ipd — the paper's reboot sequence.
func (c *Controller) OnReboot() {
	if !c.cfg.Enabled {
		return
	}
	c.rThrottled = c.savedThrottled
	c.rTotal = c.savedTotal
	if c.rTotal > 0 {
		c.rTR = float64(c.rThrottled) / float64(c.rTotal)
	} else {
		c.rTR = 0
	}

	if c.cfg.Adaptive && c.savedTotal > 0 {
		dir := int64(+1)
		if c.rTR >= c.cfg.ThrottleRateTrigger {
			c.shiftThresholds(-c.cfg.StepV)
			c.stats.MovesDown++
			dir = -1
		} else {
			c.shiftThresholds(+c.cfg.StepV)
			c.stats.MovesUp++
		}
		c.refreshCuts()
		if c.tr != nil {
			c.tr.Emit(trace.Event{Kind: trace.KindThresholdAdapt,
				Side: c.side, N: dir, Value: c.rTR})
		}
	}

	if c.tr != nil && c.cpd != c.cfg.InitialDegree {
		c.tr.Emit(trace.Event{Kind: trace.KindDegreeChange,
			Side: c.side, N: int64(c.cfg.InitialDegree), Detail: "reboot_reset"})
	}
	c.cpd = c.cfg.InitialDegree
	c.rThrottled = 0
	c.rTotal = 0
	c.savedThrottled = 0
	c.savedTotal = 0
	c.haveV = false
}

// shiftThresholds moves every threshold by dv, clamping each into the
// operating band while preserving strict descending order.
func (c *Controller) shiftThresholds(dv float64) {
	lo, hi := c.cfg.MinV, c.cfg.MaxV
	for i := range c.thresholds {
		t := c.thresholds[i] + dv
		if hi > lo {
			// Keep a small margin so a threshold never sits exactly at a
			// band edge where it could not fire.
			if t > hi-0.01 {
				t = hi - 0.01
			}
			if t < lo+0.01 {
				t = lo + 0.01
			}
		}
		c.thresholds[i] = t
	}
	// Restore strict ordering if clamping collapsed neighbours.
	for i := 1; i < len(c.thresholds); i++ {
		if c.thresholds[i] >= c.thresholds[i-1] {
			c.thresholds[i] = c.thresholds[i-1] - 0.001
		}
	}
}
