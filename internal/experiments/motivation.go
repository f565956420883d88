package experiments

import (
	"fmt"

	"ipex/internal/energy"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/stats"
)

// Fig01Row is one cache-size point of Figure 1: speedup over the 2 kB
// baseline and the share of total energy spent on cache leakage, with
// hardware prefetchers disabled.
type Fig01Row struct {
	CacheSize int     // bytes per cache (ICache and DCache each)
	Speedup   float64 // gmean speedup over the 2 kB configuration
	LeakPct   float64 // ICache+DCache leakage / total energy
}

// Fig01Result is Figure 1.
type Fig01Result struct {
	Rows []Fig01Row
	// Skipped lists apps excluded because some cache size exhausted the
	// cycle budget.
	Skipped []string
}

// Fig01CacheSizes are the swept sizes.
var Fig01CacheSizes = []int{256, 512, 1024, 2048, 4096, 8192}

// Fig01 reproduces Figure 1: the cache-size sweep that motivates the 2 kB
// default — beyond it, leakage growth cancels the miss-rate benefit.
func Fig01(o Options) (*Fig01Result, error) {
	o = o.norm()
	tr := o.trace(power.RFHome)

	pts := make([]point, len(Fig01CacheSizes))
	for i, size := range Fig01CacheSizes {
		cfg := nvp.DefaultConfig().WithoutPrefetch()
		cfg.ICacheSize = size
		cfg.DCacheSize = size
		pts[i] = point{cfg: cfg, tr: tr}
	}
	sets, err := runConfigs(o, "", pts)
	if err != nil {
		return nil, err
	}
	// Filter jointly across every size so the speedup series compares the
	// same app set at each point.
	_, filtered, skipped, err := filterComplete(o.Apps, sets...)
	if err != nil {
		return nil, err
	}
	perSize := make(map[int][]nvp.Result)
	for i, size := range Fig01CacheSizes {
		perSize[size] = filtered[i]
	}

	base := perSize[energy.DefaultCacheSize]
	res := &Fig01Result{Skipped: skipped}
	for _, size := range Fig01CacheSizes {
		rs := perSize[size]
		leakPct := 0.0
		totalE, cacheLeakE := 0.0, 0.0
		leakPerCycle := 2 * energy.LeakNJPerCycle(energy.CacheFor(size, 4).LeakMW)
		for _, r := range rs {
			totalE += r.Energy.Total()
			cacheLeakE += leakPerCycle * float64(r.OnCycles)
		}
		leakPct = stats.Ratio(cacheLeakE, totalE)
		res.Rows = append(res.Rows, Fig01Row{
			CacheSize: size,
			Speedup:   stats.Geomean(speedups(base, rs)),
			LeakPct:   leakPct,
		})
	}
	return res, nil
}

// String renders the figure's series.
func (r *Fig01Result) String() string {
	var t stats.Table
	t.Header("CacheSize", "Speedup", "CacheLeak%")
	for _, row := range r.Rows {
		t.Row(sizeLabel(row.CacheSize), fmt.Sprintf("%.3f", row.Speedup), stats.Pct(row.LeakPct))
	}
	return "Figure 1: speedup and cache leakage vs. cache size (prefetchers off)\n" + t.String() + skippedNote(r.Skipped)
}

func sizeLabel(bytes int) string {
	if bytes >= 1024 {
		return fmt.Sprintf("%dkB", bytes/1024)
	}
	return fmt.Sprintf("%dB", bytes)
}

// Fig02Row is one app of Figure 2: pipeline-stall shares by cache.
type Fig02Row struct {
	App    string
	IStall float64 // ICache-miss stall cycles / on-cycles
	DStall float64
}

// Fig02Result is Figure 2.
type Fig02Result struct {
	Rows    []Fig02Row
	IGmean  float64
	DGmean  float64
	Skipped []string
}

// Fig02 reproduces Figure 2: the stall-time motivation (default 2 kB
// caches, prefetchers off).
func Fig02(o Options) (*Fig02Result, error) {
	o = o.norm()
	sets, err := runConfigs(o, "", []point{{cfg: nvp.DefaultConfig().WithoutPrefetch(), tr: o.trace(power.RFHome)}})
	if err != nil {
		return nil, err
	}
	apps, sets, skipped, err := filterComplete(o.Apps, sets...)
	if err != nil {
		return nil, err
	}
	rs := sets[0]
	res := &Fig02Result{Skipped: skipped}
	var is, ds []float64
	for i, r := range rs {
		row := Fig02Row{
			App:    apps[i],
			IStall: stats.Ratio(float64(r.Inst.StallCycles), float64(r.OnCycles)),
			DStall: stats.Ratio(float64(r.Data.StallCycles), float64(r.OnCycles)),
		}
		res.Rows = append(res.Rows, row)
		// Geomean over stall fractions needs positive values; floor at a
		// tiny epsilon like the paper's log-scale plots do.
		is = append(is, max(row.IStall, 1e-4))
		ds = append(ds, max(row.DStall, 1e-4))
	}
	res.IGmean = stats.Geomean(is)
	res.DGmean = stats.Geomean(ds)
	return res, nil
}

// String renders the figure.
func (r *Fig02Result) String() string {
	var t stats.Table
	t.Header("App", "ICacheStall%", "DCacheStall%")
	for _, row := range r.Rows {
		t.Row(row.App, stats.Pct(row.IStall), stats.Pct(row.DStall))
	}
	t.Row("gmean", stats.Pct(r.IGmean), stats.Pct(r.DGmean))
	return "Figure 2: pipeline stall share from cache misses (no prefetchers)\n" + t.String() + skippedNote(r.Skipped)
}

// Fig04Point is one point of Figure 4's analytic curves.
type Fig04Point struct {
	EPrefetchPJ float64
	ELeakPJ     float64
	MinP        float64
}

// Fig04Result is Figure 4 plus the §2.2 operating point of the default
// system.
type Fig04Result struct {
	Points []Fig04Point
	// DefaultSystemMinP is the minimum useful-prefetch probability of the
	// default configuration (paper: 46.04%).
	DefaultSystemMinP float64
}

// Fig04 reproduces Figure 4: the minimum probability P required for
// prefetching to be beneficial (Inequality 4), over E_prefetch 0–100 pJ for
// E_leak 10–50 pJ.
func Fig04(Options) (*Fig04Result, error) {
	res := &Fig04Result{}
	for _, leakPJ := range []float64{10, 20, 30, 40, 50} {
		for ep := 0.0; ep <= 100; ep += 5 {
			res.Points = append(res.Points, Fig04Point{
				EPrefetchPJ: ep,
				ELeakPJ:     leakPJ,
				MinP:        energy.MinUsefulProbability(ep/1000, leakPJ/1000),
			})
		}
	}
	p := energy.NVMFor(energy.ReRAM, 16<<20)
	leakPerCycle := energy.LeakNJPerCycle(2*energy.CacheLeakMW + energy.NVMLeakMW + energy.CoreLeakMW)
	res.DefaultSystemMinP = energy.MinUsefulProbability(p.ReadNJ, float64(p.ReadCycles)*leakPerCycle)
	return res, nil
}

// String renders a compact view of the curves.
func (r *Fig04Result) String() string {
	var t stats.Table
	t.Header("ELeak(pJ)", "P@Ep=20pJ", "P@Ep=50pJ", "P@Ep=100pJ")
	byLeak := map[float64]map[float64]float64{}
	for _, p := range r.Points {
		if byLeak[p.ELeakPJ] == nil {
			byLeak[p.ELeakPJ] = map[float64]float64{}
		}
		byLeak[p.ELeakPJ][p.EPrefetchPJ] = p.MinP
	}
	for _, leak := range []float64{10, 20, 30, 40, 50} {
		m := byLeak[leak]
		t.Row(fmt.Sprintf("%.0f", leak), stats.Pct(m[20]), stats.Pct(m[50]), stats.Pct(m[100]))
	}
	return fmt.Sprintf("Figure 4: minimum useful-prefetch probability (default system: %s; paper 46.04%%)\n%s",
		stats.Pct(r.DefaultSystemMinP), t.String())
}
