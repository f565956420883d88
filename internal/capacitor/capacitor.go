// Package capacitor models the tiny energy-storage capacitor of a
// batteryless energy harvesting system together with the voltage monitor
// thresholds that drive the intermittent-execution life cycle.
//
// The stored energy E and terminal voltage V are related by E = ½CV².
// The system operates between four voltages:
//
//	Vmax    — the harvester regulator clamps charging here.
//	Von     — reboot threshold: a dead system restarts once V rises to Von.
//	Vbackup — JIT-checkpoint trigger: crossing below it starts the backup
//	          of dirty cache blocks and registers; the system then dies.
//	Voff    — brown-out voltage: below it no useful work is possible. The
//	          band Vbackup→Voff is the guard energy that finishes a backup.
package capacitor

import (
	"fmt"
	"math"
)

// Config holds the capacitor and voltage-monitor parameters.
type Config struct {
	// CapacitanceFarads is the storage capacitance (paper default 0.47 µF).
	CapacitanceFarads float64
	// Vmax, Von, Vbackup, Voff as described in the package comment.
	Vmax, Von, Vbackup, Voff float64
}

// DefaultConfig returns the paper's default configuration: a 0.47 µF
// capacitor with a 3.5 V clamp, 3.4 V reboot, 3.18 V backup trigger, and
// 2.9 V brown-out. The IPEX threshold examples in the paper (3.3 V / 3.25 V)
// sit inside the (Voff, Von) operating band of this configuration.
func DefaultConfig() Config {
	return Config{
		CapacitanceFarads: 0.47e-6,
		Vmax:              3.5,
		Von:               3.4,
		Vbackup:           3.18,
		Voff:              2.9,
	}
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	// NaN fails every comparison, so "<= 0" alone would let NaN through and
	// poison the energy-cutoff bisection downstream; reject it explicitly.
	if math.IsNaN(c.CapacitanceFarads) || math.IsInf(c.CapacitanceFarads, 0) || c.CapacitanceFarads <= 0 {
		return fmt.Errorf("capacitor: capacitance must be positive and finite, got %g", c.CapacitanceFarads)
	}
	for _, v := range []float64{c.Vmax, c.Von, c.Vbackup, c.Voff} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("capacitor: voltages must be finite, got %.2f/%.2f/%.2f/%.2f",
				c.Vmax, c.Von, c.Vbackup, c.Voff)
		}
	}
	if !(c.Vmax > c.Von && c.Von > c.Vbackup && c.Vbackup > c.Voff && c.Voff > 0) {
		return fmt.Errorf("capacitor: need Vmax > Von > Vbackup > Voff > 0, got %.2f/%.2f/%.2f/%.2f",
			c.Vmax, c.Von, c.Vbackup, c.Voff)
	}
	return nil
}

// Capacitor is the mutable charge state. All energies are in nanojoules to
// match the rest of the simulator.
type Capacitor struct {
	cfg Config
	// energyNJ is the stored energy in nJ.
	energyNJ float64
	maxNJ    float64
	// backupCutNJ/onCutNJ are the exact energy-domain images of the
	// Vbackup/Von comparisons: the smallest stored energy whose Voltage()
	// is >= the threshold. The simulator's per-instruction voltage checks
	// reduce to one float compare instead of a square root.
	backupCutNJ float64
	onCutNJ     float64
}

// New returns a capacitor charged to Vmax.
func New(cfg Config) (*Capacitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Capacitor{cfg: cfg, maxNJ: energyNJAt(cfg, cfg.Vmax)}
	c.energyNJ = c.maxNJ
	c.backupCutNJ = energyCutoffNJ(cfg, cfg.Vbackup)
	c.onCutNJ = energyCutoffNJ(cfg, cfg.Von)
	return c, nil
}

// MustNew is New for configurations known to be valid (tests, defaults).
func MustNew(cfg Config) *Capacitor {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func energyNJAt(cfg Config, v float64) float64 {
	return 0.5 * cfg.CapacitanceFarads * v * v * 1e9
}

// voltageOfNJ replicates Voltage()'s exact floating-point sequence for an
// arbitrary stored energy. Every step (×2, ×1e-9, ÷C, sqrt) is a
// correctly-rounded monotone operation, so the composition is weakly
// monotone in e — the property energyCutoffNJ relies on.
func voltageOfNJ(cfg Config, e float64) float64 {
	if e <= 0 {
		return 0
	}
	return math.Sqrt(2 * e * 1e-9 / cfg.CapacitanceFarads)
}

// energyCutoffNJ returns the smallest float64 energy e (in nJ) such that
// voltageOfNJ(cfg, e) >= v. Because voltageOfNJ is weakly monotone, the set
// {e : Voltage(e) >= v} is upward closed and "Voltage() >= v" is exactly
// equivalent to "energyNJ >= cutoff" — bit-identical to comparing voltages,
// without the per-call square root. The boundary is found by bisecting the
// IEEE-754 bit representation (non-negative doubles order like their bits),
// which pins the exact ULP in at most 64 steps.
func energyCutoffNJ(cfg Config, v float64) float64 {
	if v <= 0 {
		// Voltage() is never negative, so the comparison always holds.
		return math.Inf(-1)
	}
	hi := energyNJAt(cfg, cfg.Vmax)
	for voltageOfNJ(cfg, hi) < v {
		hi *= 2
		if math.IsInf(hi, 1) {
			return math.Inf(1) // v is unreachable at any stored energy
		}
	}
	lob, hib := uint64(0), math.Float64bits(hi)
	for lob < hib {
		mid := lob + (hib-lob)/2
		if voltageOfNJ(cfg, math.Float64frombits(mid)) >= v {
			hib = mid
		} else {
			lob = mid + 1
		}
	}
	return math.Float64frombits(lob)
}

// Config returns the configuration the capacitor was built with.
func (c *Capacitor) Config() Config { return c.cfg }

// Voltage returns the current terminal voltage in volts.
func (c *Capacitor) Voltage() float64 {
	if c.energyNJ <= 0 {
		return 0
	}
	return math.Sqrt(2 * c.energyNJ * 1e-9 / c.cfg.CapacitanceFarads)
}

// EnergyNJ returns the stored energy in nanojoules.
func (c *Capacitor) EnergyNJ() float64 { return c.energyNJ }

// Harvest adds nj nanojoules of harvested energy, clamped at the Vmax
// capacity. It returns the energy actually stored (the rest is shed by the
// regulator clamp).
func (c *Capacitor) Harvest(nj float64) float64 {
	if nj <= 0 {
		return 0
	}
	room := c.maxNJ - c.energyNJ
	if nj > room {
		nj = room
	}
	c.energyNJ += nj
	return nj
}

// Consume drains nj nanojoules of energy, flooring at zero charge.
func (c *Capacitor) Consume(nj float64) {
	if nj <= 0 {
		return
	}
	c.energyNJ -= nj
	if c.energyNJ < 0 {
		c.energyNJ = 0
	}
}

// CapacityNJ returns the maximum storable energy (the Vmax clamp) in nJ.
func (c *Capacitor) CapacityNJ() float64 { return c.maxNJ }

// BackupCutoffNJ returns the stored energy below which BelowBackup fires —
// the exact energy-domain image of the Vbackup comparison.
func (c *Capacitor) BackupCutoffNJ() float64 { return c.backupCutNJ }

// RestoreEnergyNJ overwrites the stored energy with a value previously
// derived from EnergyNJ() by replicating Harvest/Consume arithmetic outside
// the capacitor. The simulator's loop keeps the charge in a local (via
// EnergyNJ/CapacityNJ/BackupCutoffNJ) and writes it back here wherever
// other code reads the capacitor; e must follow the same clamp-at-capacity,
// floor-at-zero algebra or the voltage model is undefined.
func (c *Capacitor) RestoreEnergyNJ(e float64) { c.energyNJ = e }

// SetVoltage forces the terminal voltage (clamped to [0, Vmax]); tests and
// the reboot path use it.
func (c *Capacitor) SetVoltage(v float64) {
	if v < 0 {
		v = 0
	}
	if v > c.cfg.Vmax {
		v = c.cfg.Vmax
	}
	c.energyNJ = energyNJAt(c.cfg, v)
}

// BelowBackup reports whether the voltage has fallen to the JIT-checkpoint
// trigger. The comparison runs in the energy domain (see energyCutoffNJ)
// and is exactly equivalent to Voltage() < Vbackup.
func (c *Capacitor) BelowBackup() bool { return c.energyNJ < c.backupCutNJ }

// AtOrAboveOn reports whether a dead system may reboot. Exactly equivalent
// to Voltage() >= Von, without the square root.
func (c *Capacitor) AtOrAboveOn() bool { return c.energyNJ >= c.onCutNJ }

// EnergyCutoffNJ returns the smallest stored energy (nJ) at which
// Voltage() >= v holds, so callers polling voltage thresholds every cycle
// (the IPEX controllers) can compare stored energy directly. The
// equivalence is exact: energyNJ >= cutoff iff Voltage() >= v.
func (c *Capacitor) EnergyCutoffNJ(v float64) float64 {
	return energyCutoffNJ(c.cfg, v)
}

// GuardEnergyNJ returns the energy available between the backup trigger and
// brown-out — the budget a JIT checkpoint must fit into.
func (c *Capacitor) GuardEnergyNJ() float64 {
	return energyNJAt(c.cfg, c.cfg.Vbackup) - energyNJAt(c.cfg, c.cfg.Voff)
}

// OperatingEnergyNJ returns the energy between reboot (Von) and the backup
// trigger (Vbackup) — the budget one power cycle can spend on execution
// when no energy arrives during the cycle.
func (c *Capacitor) OperatingEnergyNJ() float64 {
	return energyNJAt(c.cfg, c.cfg.Von) - energyNJAt(c.cfg, c.cfg.Vbackup)
}
