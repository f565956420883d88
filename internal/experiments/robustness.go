package experiments

import (
	"fmt"

	"ipex/internal/fault"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/stats"
)

// RobustPoint is one configuration of a robustness sweep: the gmean IPEX
// speedup under a fault schedule, the number of faults the schedule
// actually injected (summed over all apps), and whether the runtime
// invariant checker stayed clean on every run of the point.
type RobustPoint struct {
	Label    string
	Speedup  float64
	Injected uint64
	Clean    bool
}

// RobustResult is a labelled robustness series. Unlike the sensitivity
// sweeps it runs every simulation in paranoid mode: a fault schedule that
// corrupted the simulator's own accounting would silently invalidate the
// sweep, so cleanliness is part of the reported result.
type RobustResult struct {
	Title   string
	Points  []RobustPoint
	Skipped []string
}

// String renders the sweep.
func (r *RobustResult) String() string {
	var t stats.Table
	t.Header("Config", "IPEXSpeedup", "FaultsInjected", "Paranoid")
	for _, p := range r.Points {
		status := "clean"
		if !p.Clean {
			status = "VIOLATED"
		}
		t.Row(p.Label, fmt.Sprintf("%.4f", p.Speedup), fmt.Sprintf("%d", p.Injected), status)
	}
	return r.Title + "\n" + t.String() + skippedNote(r.Skipped)
}

// allClean reports whether every run's invariant report is clean. Paranoid
// mode attaches a report to each result; a missing report counts as clean
// (the checker was off).
func allClean(sets ...[]nvp.Result) bool {
	for _, rs := range sets {
		for i := range rs {
			if !rs[i].Invariants.Clean() {
				return false
			}
		}
	}
	return true
}

// sensorLevel is one point of the RobustSensor sweep.
type sensorLevel struct {
	label string
	cfg   fault.SensorConfig
}

// robustSensorLevels is the degradation ladder: an ideal analog monitor,
// coarser ADC quantization, then increasing Gaussian noise and sample
// dropouts on the 8-bit converter.
var robustSensorLevels = []sensorLevel{
	{"ideal", fault.SensorConfig{}},
	{"12-bit", fault.SensorConfig{ADCBits: 12}},
	{"8-bit", fault.SensorConfig{ADCBits: 8}},
	{"8-bit+5mV", fault.SensorConfig{ADCBits: 8, NoiseV: 0.005}},
	{"8-bit+10mV", fault.SensorConfig{ADCBits: 8, NoiseV: 0.010}},
	{"8-bit+20mV+drop1%", fault.SensorConfig{ADCBits: 8, NoiseV: 0.020, DropoutProb: 0.01}},
}

// RobustSensor measures how IPEX's gain degrades as the voltage sensor
// feeding it degrades (EXPERIMENTS.md "Robustness sweep"). The conventional
// baseline has no IPEX and therefore no sensor in the loop, so it runs
// once; each ladder level reruns only the IPEX configuration with the
// faulted sensor between the capacitor and the controller.
func RobustSensor(o Options) (*RobustResult, error) {
	o = o.norm()
	tr := o.trace(power.RFHome)

	base := nvp.DefaultConfig()
	base.Paranoid = true
	pts := []point{{cfg: base, tr: tr}}
	for _, lv := range robustSensorLevels {
		cfg := nvp.DefaultConfig().WithIPEX()
		cfg.Paranoid = true
		if lv.cfg.Active() {
			cfg.Faults = &fault.Config{Seed: o.TraceSeed, Sensor: lv.cfg}
		}
		pts = append(pts, point{label: lv.label, cfg: cfg, tr: tr})
	}
	all, err := runConfigs(o, "robust-sensor", pts)
	if err != nil {
		return nil, err
	}
	baseRs := all[0]

	res := &RobustResult{Title: "Robustness: IPEX speedup vs. voltage-sensor degradation, RFHome"}
	for n, lv := range robustSensorLevels {
		rs := all[n+1]
		_, sets, skipped, err := filterComplete(o.Apps, baseRs, rs)
		if err != nil {
			return nil, fmt.Errorf("robust-sensor [%s]: %w", lv.label, err)
		}
		res.Skipped = mergeSkipped(res.Skipped, skipped)
		var injected uint64
		for i := range rs {
			if fs := rs[i].Faults; fs != nil {
				injected += fs.SensorDropouts + fs.SensorStuck
			}
		}
		res.Points = append(res.Points, RobustPoint{
			Label:    lv.label,
			Speedup:  stats.Geomean(speedups(sets[0], sets[1])),
			Injected: injected,
			Clean:    allClean(baseRs, rs),
		})
	}
	return res, nil
}

// robustCkptProbs is the per-block checkpoint write-failure probability
// ladder of the RobustCkpt sweep.
var robustCkptProbs = []float64{0, 0.01, 0.05, 0.10, 0.20}

// RobustCkpt measures IPEX's gain as checkpoint writes start tearing.
// Failing writes hit baseline and IPEX alike (checkpointing is shared
// machinery), so both columns rerun at every failure rate and the speedup
// compares like against like.
func RobustCkpt(o Options) (*RobustResult, error) {
	o = o.norm()
	tr := o.trace(power.RFHome)

	labels := make([]string, len(robustCkptProbs))
	pts := make([]point, 0, 2*len(robustCkptProbs))
	for i, p := range robustCkptProbs {
		labels[i] = fmt.Sprintf("fail=%g%%", p*100)
		var fc *fault.Config
		if p > 0 {
			fc = &fault.Config{Seed: o.TraceSeed, Checkpoint: fault.CheckpointConfig{WriteFailProb: p}}
		}
		base := nvp.DefaultConfig()
		base.Paranoid = true
		base.Faults = fc
		ipex := nvp.DefaultConfig().WithIPEX()
		ipex.Paranoid = true
		ipex.Faults = fc
		pts = append(pts, point{label: labels[i], cfg: base, tr: tr}, point{label: labels[i], cfg: ipex, tr: tr})
	}
	all, err := runConfigs(o, "robust-ckpt", pts)
	if err != nil {
		return nil, err
	}

	res := &RobustResult{Title: "Robustness: IPEX speedup vs. checkpoint write-failure rate, RFHome"}
	for i, label := range labels {
		baseRs, ipexRs := all[2*i], all[2*i+1]
		_, sets, skipped, err := filterComplete(o.Apps, baseRs, ipexRs)
		if err != nil {
			return nil, fmt.Errorf("robust-ckpt [%s]: %w", label, err)
		}
		res.Skipped = mergeSkipped(res.Skipped, skipped)
		var injected uint64
		for _, rs := range [][]nvp.Result{baseRs, ipexRs} {
			for i := range rs {
				if fs := rs[i].Faults; fs != nil {
					injected += fs.CheckpointWriteFailures
				}
			}
		}
		res.Points = append(res.Points, RobustPoint{
			Label:    label,
			Speedup:  stats.Geomean(speedups(sets[0], sets[1])),
			Injected: injected,
			Clean:    allClean(baseRs, ipexRs),
		})
	}
	return res, nil
}
