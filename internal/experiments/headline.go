package experiments

import (
	"fmt"

	"ipex/internal/energy"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/stats"
)

// headlineRuns bundles the per-app runs that Figures 10 and 12–15 plus
// Table 2 all derive from. Each figure runs them; in a journaled sweep the
// supervisor's memo simulates each cell once and answers the repeats.
type headlineRuns struct {
	apps     []string
	noPf     []nvp.Result
	base     []nvp.Result // NVSRAMCache + default prefetchers, degree 2
	ipexData []nvp.Result
	ipexBoth []nvp.Result
	// skipped lists apps dropped because some configuration exhausted its
	// cycle budget; the derived figures carry it into their output.
	skipped []string
}

func runHeadline(o Options, src power.Source) (*headlineRuns, error) {
	o = o.norm()
	tr := o.trace(src)
	cfg := nvp.DefaultConfig()
	rs, err := runConfigs(o, "", []point{
		{cfg: cfg.WithoutPrefetch(), tr: tr},
		{cfg: cfg, tr: tr},
		{cfg: cfg.WithIPEXData(), tr: tr},
		{cfg: cfg.WithIPEX(), tr: tr},
	})
	if err != nil {
		return nil, err
	}
	apps, sets, skipped, err := filterComplete(o.Apps, rs...)
	if err != nil {
		return nil, err
	}
	h := &headlineRuns{apps: apps, skipped: skipped}
	h.noPf, h.base, h.ipexData, h.ipexBoth = sets[0], sets[1], sets[2], sets[3]
	return h, nil
}

// Fig10Row is one app of Figure 10: normalized performance vs. the
// NVSRAMCache baseline with default prefetchers.
type Fig10Row struct {
	App      string
	NoPf     float64 // NVSRAMCache (No Prefetcher)
	IPEXData float64 // + IPEX for default data prefetcher
	IPEXBoth float64 // + IPEX for both default prefetchers
}

// Fig10Result is Figure 10.
type Fig10Result struct {
	Rows []Fig10Row
	// Gmean* are the suite geometric means of the three series.
	GmeanNoPf, GmeanIPEXData, GmeanIPEXBoth float64
	// PrefetchGain is the baseline's gain over no-prefetching (the 4.96%
	// the paper quotes in §6.2).
	PrefetchGain float64
	// Skipped lists apps excluded because a configuration exhausted its
	// cycle budget.
	Skipped []string
}

// Fig10 reproduces Figure 10 with the RFHome trace.
func Fig10(o Options) (*Fig10Result, error) {
	h, err := runHeadline(o, power.RFHome)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Skipped: h.skipped}
	sNo := speedups(h.base, h.noPf)
	sD := speedups(h.base, h.ipexData)
	sB := speedups(h.base, h.ipexBoth)
	for i, app := range h.apps {
		res.Rows = append(res.Rows, Fig10Row{App: app, NoPf: sNo[i], IPEXData: sD[i], IPEXBoth: sB[i]})
	}
	res.GmeanNoPf = stats.Geomean(sNo)
	res.GmeanIPEXData = stats.Geomean(sD)
	res.GmeanIPEXBoth = stats.Geomean(sB)
	res.PrefetchGain = 1/res.GmeanNoPf - 1
	return res, nil
}

// String renders the figure.
func (r *Fig10Result) String() string {
	var t stats.Table
	t.Header("App", "NoPrefetcher", "+IPEX(Data)", "+IPEX(Both)")
	for _, row := range r.Rows {
		t.Row(row.App, fmt.Sprintf("%.3f", row.NoPf), fmt.Sprintf("%.3f", row.IPEXData), fmt.Sprintf("%.3f", row.IPEXBoth))
	}
	t.Row("gmean", fmt.Sprintf("%.3f", r.GmeanNoPf), fmt.Sprintf("%.3f", r.GmeanIPEXData), fmt.Sprintf("%.3f", r.GmeanIPEXBoth))
	return fmt.Sprintf("Figure 10: speedup vs. NVSRAMCache baseline, RFHome (prefetching itself gains %s over no-prefetch)\n%s",
		stats.Pct(r.PrefetchGain), t.String()) + skippedNote(r.Skipped)
}

// Fig11Result is Figure 11: the same comparison against the ideal
// (zero-cost checkpoint/restore) NVSRAMCache.
type Fig11Result struct {
	Rows                                    []Fig10Row
	GmeanNoPf, GmeanIPEXData, GmeanIPEXBoth float64
	// Skipped lists apps excluded because a configuration exhausted its
	// cycle budget.
	Skipped []string
}

// Fig11 reproduces Figure 11 with the RFHome trace: every configuration
// runs with Ideal backup/restore, and speedups are normalized to the ideal
// baseline with prefetchers.
func Fig11(o Options) (*Fig11Result, error) {
	o = o.norm()
	tr := o.trace(power.RFHome)
	ideal := nvp.DefaultConfig()
	ideal.Ideal = true

	rs, err := runConfigs(o, "", []point{
		{cfg: ideal.WithoutPrefetch(), tr: tr},
		{cfg: ideal, tr: tr},
		{cfg: ideal.WithIPEXData(), tr: tr},
		{cfg: ideal.WithIPEX(), tr: tr},
	})
	if err != nil {
		return nil, err
	}
	apps, sets, skipped, err := filterComplete(o.Apps, rs...)
	if err != nil {
		return nil, err
	}
	noPf, base, ipexD, ipexB := sets[0], sets[1], sets[2], sets[3]
	res := &Fig11Result{Skipped: skipped}
	sNo, sD, sB := speedups(base, noPf), speedups(base, ipexD), speedups(base, ipexB)
	for i, app := range apps {
		res.Rows = append(res.Rows, Fig10Row{App: app, NoPf: sNo[i], IPEXData: sD[i], IPEXBoth: sB[i]})
	}
	res.GmeanNoPf = stats.Geomean(sNo)
	res.GmeanIPEXData = stats.Geomean(sD)
	res.GmeanIPEXBoth = stats.Geomean(sB)
	return res, nil
}

// String renders the figure.
func (r *Fig11Result) String() string {
	var t stats.Table
	t.Header("App", "NoPrefetcher", "+IPEX(Data)", "+IPEX(Both)")
	for _, row := range r.Rows {
		t.Row(row.App, fmt.Sprintf("%.3f", row.NoPf), fmt.Sprintf("%.3f", row.IPEXData), fmt.Sprintf("%.3f", row.IPEXBoth))
	}
	t.Row("gmean", fmt.Sprintf("%.3f", r.GmeanNoPf), fmt.Sprintf("%.3f", r.GmeanIPEXData), fmt.Sprintf("%.3f", r.GmeanIPEXBoth))
	return "Figure 11: speedup vs. NVSRAMCache (ideal) baseline, RFHome\n" + t.String() + skippedNote(r.Skipped)
}

// Fig12Row is one app of Figure 12: the prefetch-operation reduction from
// attaching IPEX to both prefetchers.
type Fig12Row struct {
	App          string
	ReductionPct float64
}

// Fig12Result is Figure 12.
type Fig12Result struct {
	Rows    []Fig12Row
	Mean    float64
	Skipped []string
}

// Fig12 reproduces Figure 12.
func Fig12(o Options) (*Fig12Result, error) {
	h, err := runHeadline(o, power.RFHome)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{Skipped: h.skipped}
	var all []float64
	for i, app := range h.apps {
		b := float64(h.base[i].PrefetchesIssued())
		x := float64(h.ipexBoth[i].PrefetchesIssued())
		red := stats.Ratio(b-x, b)
		res.Rows = append(res.Rows, Fig12Row{App: app, ReductionPct: red})
		all = append(all, red)
	}
	res.Mean = stats.Mean(all)
	return res, nil
}

// String renders the figure.
func (r *Fig12Result) String() string {
	var t stats.Table
	t.Header("App", "PrefetchOpReduction%")
	for _, row := range r.Rows {
		t.Row(row.App, stats.Pct(row.ReductionPct))
	}
	t.Row("mean", stats.Pct(r.Mean))
	return "Figure 12: prefetch-operation reduction with IPEX on both prefetchers\n" + t.String() + skippedNote(r.Skipped)
}

// Fig13Row is one app of Figure 13.
type Fig13Row struct {
	App                 string
	TrafficReductionPct float64
	NormalizedEnergy    float64 // IPEX total energy / baseline total energy
}

// Fig13Result is Figure 13.
type Fig13Result struct {
	Rows        []Fig13Row
	MeanTraffic float64
	MeanEnergy  float64
	Skipped     []string
}

// Fig13 reproduces Figure 13.
func Fig13(o Options) (*Fig13Result, error) {
	h, err := runHeadline(o, power.RFHome)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Skipped: h.skipped}
	var traffics, energies []float64
	for i, app := range h.apps {
		b := float64(h.base[i].NVM.TrafficAccesses())
		x := float64(h.ipexBoth[i].NVM.TrafficAccesses())
		red := stats.Ratio(b-x, b)
		ne := stats.Ratio(h.ipexBoth[i].Energy.Total(), h.base[i].Energy.Total())
		res.Rows = append(res.Rows, Fig13Row{App: app, TrafficReductionPct: red, NormalizedEnergy: ne})
		traffics = append(traffics, red)
		energies = append(energies, ne)
	}
	res.MeanTraffic = stats.Mean(traffics)
	res.MeanEnergy = stats.Mean(energies)
	return res, nil
}

// String renders the figure.
func (r *Fig13Result) String() string {
	var t stats.Table
	t.Header("App", "TrafficReduction%", "NormEnergy")
	for _, row := range r.Rows {
		t.Row(row.App, stats.Pct(row.TrafficReductionPct), fmt.Sprintf("%.3f", row.NormalizedEnergy))
	}
	t.Row("mean", stats.Pct(r.MeanTraffic), fmt.Sprintf("%.3f", r.MeanEnergy))
	return "Figure 13: memory-traffic reduction and normalized energy (IPEX both)\n" + t.String() + skippedNote(r.Skipped)
}

// Fig14Row is one app of Figure 14: normalized energy breakdowns for the
// three configurations (baseline, +IPEX data, +IPEX both), each normalized
// to the baseline's total.
type Fig14Row struct {
	App      string
	Base     energy.Breakdown
	IPEXData energy.Breakdown
	IPEXBoth energy.Breakdown
}

// Fig14Result is Figure 14.
type Fig14Result struct {
	Rows []Fig14Row
	// MemoryReduction and TotalReduction are the suite means for the
	// IPEX-both bars (paper: 13.24% and 7.86%).
	MemoryReduction float64
	TotalReduction  float64
	Skipped         []string
}

// Fig14 reproduces Figure 14.
func Fig14(o Options) (*Fig14Result, error) {
	h, err := runHeadline(o, power.RFHome)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{Skipped: h.skipped}
	var memRed, totRed []float64
	for i, app := range h.apps {
		bt := h.base[i].Energy.Total()
		row := Fig14Row{
			App:      app,
			Base:     h.base[i].Energy.Scale(1 / bt),
			IPEXData: h.ipexData[i].Energy.Scale(1 / bt),
			IPEXBoth: h.ipexBoth[i].Energy.Scale(1 / bt),
		}
		res.Rows = append(res.Rows, row)
		memRed = append(memRed, stats.Ratio(h.base[i].Energy.Memory-h.ipexBoth[i].Energy.Memory, h.base[i].Energy.Memory))
		totRed = append(totRed, 1-h.ipexBoth[i].Energy.Total()/bt)
	}
	res.MemoryReduction = stats.Mean(memRed)
	res.TotalReduction = stats.Mean(totRed)
	return res, nil
}

// String renders the figure (three bars per app).
func (r *Fig14Result) String() string {
	var t stats.Table
	t.Header("App", "Config", "Cache", "Memory", "Compute", "Bk+Rst", "Total")
	add := func(app, cfg string, b energy.Breakdown) {
		t.Row(app, cfg,
			fmt.Sprintf("%.3f", b.Cache), fmt.Sprintf("%.3f", b.Memory),
			fmt.Sprintf("%.3f", b.Compute), fmt.Sprintf("%.3f", b.BkRst),
			fmt.Sprintf("%.3f", b.Total()))
	}
	for _, row := range r.Rows {
		add(row.App, "base", row.Base)
		add("", "+IPEX(D)", row.IPEXData)
		add("", "+IPEX(I+D)", row.IPEXBoth)
	}
	return fmt.Sprintf("Figure 14: normalized energy breakdown (mean memory reduction %s, total %s)\n%s",
		stats.Pct(r.MemoryReduction), stats.Pct(r.TotalReduction), t.String()) + skippedNote(r.Skipped)
}

// Fig15Row is one app of Figure 15: miss rates with and without IPEX.
type Fig15Row struct {
	App                  string
	IMiss, DMiss         float64 // baseline
	IMissIPEX, DMissIPEX float64 // IPEX on both prefetchers
}

// Fig15Result is Figure 15.
type Fig15Result struct {
	Rows []Fig15Row
	// Deltas are the mean absolute miss-rate increases (paper: +0.08%
	// ICache, +0.02% DCache).
	IDelta, DDelta float64
	Skipped        []string
}

// Fig15 reproduces Figure 15.
func Fig15(o Options) (*Fig15Result, error) {
	h, err := runHeadline(o, power.RFHome)
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{Skipped: h.skipped}
	var di, dd []float64
	for i, app := range h.apps {
		row := Fig15Row{
			App:       app,
			IMiss:     h.base[i].Inst.Cache.MissRate(),
			DMiss:     h.base[i].Data.Cache.MissRate(),
			IMissIPEX: h.ipexBoth[i].Inst.Cache.MissRate(),
			DMissIPEX: h.ipexBoth[i].Data.Cache.MissRate(),
		}
		res.Rows = append(res.Rows, row)
		di = append(di, row.IMissIPEX-row.IMiss)
		dd = append(dd, row.DMissIPEX-row.DMiss)
	}
	res.IDelta = stats.Mean(di)
	res.DDelta = stats.Mean(dd)
	return res, nil
}

// String renders the figure.
func (r *Fig15Result) String() string {
	var t stats.Table
	t.Header("App", "IMiss%", "IMiss%+IPEX", "DMiss%", "DMiss%+IPEX")
	for _, row := range r.Rows {
		t.Row(row.App, stats.Pct(row.IMiss), stats.Pct(row.IMissIPEX), stats.Pct(row.DMiss), stats.Pct(row.DMissIPEX))
	}
	return fmt.Sprintf("Figure 15: cache miss rates (mean delta: ICache %+.3f%%, DCache %+.3f%%)\n%s",
		100*r.IDelta, 100*r.DDelta, t.String()) + skippedNote(r.Skipped)
}

// Table2Result reproduces Table 2: suite-mean prefetch accuracy and
// coverage, with and without IPEX.
type Table2Result struct {
	BaseAccI, BaseAccD, BaseCovI, BaseCovD float64
	IPEXAccI, IPEXAccD, IPEXCovI, IPEXCovD float64
	Skipped                                []string
}

// Table2 reproduces Table 2.
func Table2(o Options) (*Table2Result, error) {
	h, err := runHeadline(o, power.RFHome)
	if err != nil {
		return nil, err
	}
	mean := func(rs []nvp.Result, f func(nvp.Result) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return stats.Mean(xs)
	}
	return &Table2Result{
		Skipped:  h.skipped,
		BaseAccI: mean(h.base, func(r nvp.Result) float64 { return r.Inst.Accuracy() }),
		BaseAccD: mean(h.base, func(r nvp.Result) float64 { return r.Data.Accuracy() }),
		BaseCovI: mean(h.base, func(r nvp.Result) float64 { return r.Inst.Coverage() }),
		BaseCovD: mean(h.base, func(r nvp.Result) float64 { return r.Data.Coverage() }),
		IPEXAccI: mean(h.ipexBoth, func(r nvp.Result) float64 { return r.Inst.Accuracy() }),
		IPEXAccD: mean(h.ipexBoth, func(r nvp.Result) float64 { return r.Data.Accuracy() }),
		IPEXCovI: mean(h.ipexBoth, func(r nvp.Result) float64 { return r.Inst.Coverage() }),
		IPEXCovD: mean(h.ipexBoth, func(r nvp.Result) float64 { return r.Data.Coverage() }),
	}, nil
}

// String renders the table in the paper's layout.
func (r *Table2Result) String() string {
	var t stats.Table
	t.Header("Config", "Acc.(Inst.)", "Acc.(Data)", "Cov.(Inst.)", "Cov.(Data)")
	t.Row("NVSRAMCache", stats.Pct(r.BaseAccI), stats.Pct(r.BaseAccD), stats.Pct(r.BaseCovI), stats.Pct(r.BaseCovD))
	t.Row("IPEX", stats.Pct(r.IPEXAccI), stats.Pct(r.IPEXAccD), stats.Pct(r.IPEXCovI), stats.Pct(r.IPEXCovD))
	return "Table 2: prefetch accuracy and coverage\n" + t.String() + skippedNote(r.Skipped)
}
