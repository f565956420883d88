package experiments

import (
	"fmt"

	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/stats"
)

// SweepPoint is one configuration of a sensitivity sweep: the gmean IPEX
// speedup over the matching conventional baseline.
type SweepPoint struct {
	Label   string
	Speedup float64
}

// SweepResult is a labelled series of sweep points.
type SweepResult struct {
	Title  string
	Points []SweepPoint
	// Skipped lists apps dropped from at least one point's gmean because a
	// run exhausted the cycle budget.
	Skipped []string
}

// String renders the sweep.
func (r *SweepResult) String() string {
	var t stats.Table
	t.Header("Config", "IPEXSpeedup")
	for _, p := range r.Points {
		t.Row(p.Label, fmt.Sprintf("%.4f", p.Speedup))
	}
	return r.Title + "\n" + t.String() + skippedNote(r.Skipped)
}

// ipexGain runs every baseline point and its IPEX-both partner over all
// apps in one batch and returns the series of gmean speedups of IPEX over
// the baseline, plus the apps dropped for exhausting the cycle budget.
func ipexGain(o Options, title string, bases []point) (*SweepResult, error) {
	pts := make([]point, 0, 2*len(bases))
	for _, b := range bases {
		ipex := b
		ipex.cfg = b.cfg.WithIPEX()
		pts = append(pts, b, ipex)
	}
	rs, err := runConfigs(o, title, pts)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Title: title}
	for i, b := range bases {
		_, sets, skipped, err := filterComplete(o.Apps, rs[2*i], rs[2*i+1])
		if err != nil {
			return nil, fmt.Errorf("%s [%s]: %w", title, b.label, err)
		}
		res.Skipped = mergeSkipped(res.Skipped, skipped)
		res.Points = append(res.Points, SweepPoint{Label: b.label, Speedup: stats.Geomean(speedups(sets[0], sets[1]))})
	}
	return res, nil
}

// sweep evaluates ipexGain for a list of labelled mutations of the default
// configuration on one trace.
func sweep(o Options, title string, src power.Source, labels []string, muts []func(*nvp.Config)) (*SweepResult, error) {
	o = o.norm()
	tr := o.trace(src)
	bases := make([]point, len(labels))
	for i, label := range labels {
		cfg := nvp.DefaultConfig()
		if muts[i] != nil {
			muts[i](&cfg)
		}
		bases[i] = point{label: label, cfg: cfg, tr: tr}
	}
	return ipexGain(o, title, bases)
}

// Table3 reproduces Table 3: IPEX's gain with each instruction prefetcher
// (the data prefetcher stays at the default stride).
func Table3(o Options) (*SweepResult, error) {
	kinds := prefetch.InstructionKinds
	labels := make([]string, len(kinds))
	muts := make([]func(*nvp.Config), len(kinds))
	for i, k := range kinds {
		k := k
		labels[i] = string(k)
		muts[i] = func(c *nvp.Config) { c.IPrefetcher = k }
	}
	return sweep(o, "Table 3: IPEX speedup by instruction prefetcher", power.RFHome, labels, muts)
}

// Table4 reproduces Table 4: IPEX's gain with each data prefetcher (the
// instruction prefetcher stays at the default sequential).
func Table4(o Options) (*SweepResult, error) {
	kinds := prefetch.DataKinds
	labels := make([]string, len(kinds))
	muts := make([]func(*nvp.Config), len(kinds))
	for i, k := range kinds {
		k := k
		labels[i] = string(k)
		muts[i] = func(c *nvp.Config) { c.DPrefetcher = k }
	}
	return sweep(o, "Table 4: IPEX speedup by data prefetcher", power.RFHome, labels, muts)
}

// Fig16 reproduces Figure 16: the voltage-threshold-count sweep (1–3).
func Fig16(o Options) (*SweepResult, error) {
	labels := []string{"One", "Two", "Three"}
	muts := make([]func(*nvp.Config), 3)
	for i := 0; i < 3; i++ {
		k := i + 1
		muts[i] = func(c *nvp.Config) {
			c.IPEX.Thresholds = core.ThresholdsFor(k, c.Capacitor.Vbackup, c.Capacitor.Von)
		}
	}
	return sweep(o, "Figure 16: IPEX speedup vs. voltage threshold count", power.RFHome, labels, muts)
}

// Fig17 reproduces Figure 17: the prefetch-buffer-size sweep (32/64/128 B).
func Fig17(o Options) (*SweepResult, error) {
	entries := []int{2, 4, 8}
	labels := []string{"32B", "64B", "128B"}
	muts := make([]func(*nvp.Config), len(entries))
	for i, n := range entries {
		n := n
		muts[i] = func(c *nvp.Config) { c.PrefetchBufEntries = n }
	}
	return sweep(o, "Figure 17: IPEX speedup vs. prefetch buffer size", power.RFHome, labels, muts)
}

// Fig18 reproduces Figure 18: the cache-size sweep with IPEX.
func Fig18(o Options) (*SweepResult, error) {
	sizes := Fig01CacheSizes
	labels := make([]string, len(sizes))
	muts := make([]func(*nvp.Config), len(sizes))
	for i, s := range sizes {
		s := s
		labels[i] = sizeLabel(s)
		muts[i] = func(c *nvp.Config) { c.ICacheSize = s; c.DCacheSize = s }
	}
	return sweep(o, "Figure 18: IPEX speedup vs. cache size", power.RFHome, labels, muts)
}

// Fig19 reproduces Figure 19: the associativity sweep.
func Fig19(o Options) (*SweepResult, error) {
	ways := []int{1, 2, 4, 8}
	labels := []string{"1-Way", "2-Way", "4-Way", "8-Way"}
	muts := make([]func(*nvp.Config), len(ways))
	for i, w := range ways {
		w := w
		muts[i] = func(c *nvp.Config) { c.Ways = w }
	}
	return sweep(o, "Figure 19: IPEX speedup vs. cache associativity", power.RFHome, labels, muts)
}

// Fig20 reproduces Figure 20: the main-memory-size sweep.
func Fig20(o Options) (*SweepResult, error) {
	sizes := []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}
	labels := []string{"2MB", "4MB", "8MB", "16MB", "32MB"}
	muts := make([]func(*nvp.Config), len(sizes))
	for i, s := range sizes {
		s := s
		muts[i] = func(c *nvp.Config) { c.NVM = energy.NVMFor(energy.ReRAM, s) }
	}
	return sweep(o, "Figure 20: IPEX speedup vs. main memory size", power.RFHome, labels, muts)
}

// Fig21 reproduces Figure 21: the NVM-technology sweep.
func Fig21(o Options) (*SweepResult, error) {
	techs := []energy.NVMTech{energy.ReRAM, energy.STTRAM, energy.PCM}
	labels := []string{"ReRAM", "STTRAM", "PCM"}
	muts := make([]func(*nvp.Config), len(techs))
	for i, tech := range techs {
		tech := tech
		muts[i] = func(c *nvp.Config) { c.NVM = energy.NVMFor(tech, 16<<20) }
	}
	return sweep(o, "Figure 21: IPEX speedup vs. NVM technology", power.RFHome, labels, muts)
}

// Fig22 reproduces Figure 22: the capacitor-size sweep.
func Fig22(o Options) (*SweepResult, error) {
	caps := []float64{0.47e-6, 1e-6, 4.7e-6, 10e-6, 47e-6, 100e-6, 1000e-6}
	labels := []string{"0.47", "1", "4.7", "10", "47", "100", "1000"}
	muts := make([]func(*nvp.Config), len(caps))
	for i, f := range caps {
		f := f
		muts[i] = func(c *nvp.Config) { c.Capacitor.CapacitanceFarads = f }
	}
	return sweep(o, "Figure 22: IPEX speedup vs. capacitor size (µF)", power.RFHome, labels, muts)
}

// Fig23 reproduces Figure 23: the power-trace sweep.
func Fig23(o Options) (*SweepResult, error) {
	o = o.norm()
	bases := make([]point, len(power.Sources))
	for i, src := range power.Sources {
		bases[i] = point{label: src.String(), cfg: nvp.DefaultConfig(), tr: o.trace(src)}
	}
	return ipexGain(o, "Figure 23: IPEX speedup vs. power trace", bases)
}

// Fig24 reproduces Figure 24: the threshold-adaptation step-size sweep.
func Fig24(o Options) (*SweepResult, error) {
	steps := []float64{0.05, 0.10, 0.15}
	labels := []string{"0.05V", "0.1V", "0.15V"}
	muts := make([]func(*nvp.Config), len(steps))
	for i, s := range steps {
		s := s
		muts[i] = func(c *nvp.Config) { c.IPEX.StepV = s }
	}
	return sweep(o, "Figure 24: IPEX speedup vs. voltage step size", power.RFHome, labels, muts)
}

// Fig25 reproduces Figure 25: the throttle-rate-trigger sweep.
func Fig25(o Options) (*SweepResult, error) {
	rates := []float64{0.01, 0.05, 0.10, 0.20}
	labels := []string{"1%", "5%", "10%", "20%"}
	muts := make([]func(*nvp.Config), len(rates))
	for i, r := range rates {
		r := r
		muts[i] = func(c *nvp.Config) { c.IPEX.ThrottleRateTrigger = r }
	}
	return sweep(o, "Figure 25: IPEX speedup vs. throttle-rate trigger", power.RFHome, labels, muts)
}

// AblationDegreePolicy compares the paper's halve/double degree adjustment
// against a linear ±1 policy (DESIGN.md ablation).
func AblationDegreePolicy(o Options) (*SweepResult, error) {
	return sweep(o, "Ablation: degree adjustment policy", power.RFHome,
		[]string{"halve/double", "linear±1"},
		[]func(*nvp.Config){
			nil,
			func(c *nvp.Config) { c.IPEX.LinearAdjust = true },
		})
}

// AblationAdaptive compares adaptive threshold tuning against fixed
// thresholds.
func AblationAdaptive(o Options) (*SweepResult, error) {
	return sweep(o, "Ablation: adaptive vs. fixed thresholds", power.RFHome,
		[]string{"adaptive", "fixed"},
		[]func(*nvp.Config){
			nil,
			func(c *nvp.Config) { c.IPEX.Adaptive = false },
		})
}

// AblationReissue evaluates the §5.1 future-work extension: reissuing
// throttled prefetches when IPEX returns to high-performance mode.
func AblationReissue(o Options) (*SweepResult, error) {
	return sweep(o, "Extension: §5.1 reissue-on-exit (IPEX gain with/without)", power.RFHome,
		[]string{"ipex", "ipex+reissue"},
		[]func(*nvp.Config){
			nil,
			func(c *nvp.Config) { c.ReissueOnExit = true },
		})
}

// AblationAddressGen evaluates the §5.2 extension on a table-based
// prefetcher pair (Markov instruction + GHB data): gating the prefetchers'
// address generation when the degree is throttled to zero.
func AblationAddressGen(o Options) (*SweepResult, error) {
	tableBased := func(c *nvp.Config) {
		c.IPrefetcher = prefetch.KindMarkov
		c.DPrefetcher = prefetch.KindGHB
	}
	return sweep(o, "Extension: §5.2 address-generation gating (Markov+GHB)", power.RFHome,
		[]string{"gated", "ungated"},
		[]func(*nvp.Config){
			func(c *nvp.Config) { tableBased(c); c.GateAddressGen = true },
			tableBased,
		})
}

// AblationPrefetchDest compares the prefetch-to-cache organization (the
// paper's Figs. 5/6 story, this repo's default) against the pure
// prefetch-buffer organization (§6's pollution-free variant), reporting
// each one's IPEX gain.
func AblationPrefetchDest(o Options) (*SweepResult, error) {
	return sweep(o, "Ablation: prefetch destination (IPEX gain per organization)", power.RFHome,
		[]string{"to-cache", "buffer-only"},
		[]func(*nvp.Config){
			nil,
			func(c *nvp.Config) { c.PrefetchToCache = false },
		})
}

// AblationDupSuppress compares the §5.1 duplicate-request suppression
// on/off, reporting the suppression's own gain for the conventional
// prefetcher (not an IPEX delta).
func AblationDupSuppress(o Options) (*SweepResult, error) {
	o = o.norm()
	tr := o.trace(power.RFHome)
	with := nvp.DefaultConfig()
	without := with
	without.DupSuppress = false

	rs, err := runConfigs(o, "", []point{{cfg: with, tr: tr}, {cfg: without, tr: tr}})
	if err != nil {
		return nil, err
	}
	_, sets, skipped, err := filterComplete(o.Apps, rs...)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Title:   "Ablation: §5.1 duplicate-request suppression (speedup of on vs. off)",
		Skipped: skipped,
	}
	res.Points = append(res.Points, SweepPoint{
		Label:   "suppression-gain",
		Speedup: stats.Geomean(speedups(sets[1], sets[0])),
	})
	return res, nil
}
