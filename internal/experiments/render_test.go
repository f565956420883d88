package experiments

import (
	"strings"
	"testing"

	"ipex/internal/energy"
	"ipex/internal/nvp"
	"ipex/internal/power"
)

// TestRenderers exercises every result Stringer against hand-built values
// so the textual figures stay shaped like the paper's.
func TestRenderers(t *testing.T) {
	fig10 := &Fig10Result{
		Rows:          []Fig10Row{{App: "fft", NoPf: 0.9, IPEXData: 1.01, IPEXBoth: 1.05}},
		GmeanNoPf:     0.9,
		GmeanIPEXData: 1.01,
		GmeanIPEXBoth: 1.05,
		PrefetchGain:  0.11,
	}
	if out := fig10.String(); !strings.Contains(out, "1.050") || !strings.Contains(out, "gmean") {
		t.Errorf("Fig10 renderer:\n%s", out)
	}

	fig11 := &Fig11Result{Rows: fig10.Rows, GmeanIPEXBoth: 1.02}
	if out := fig11.String(); !strings.Contains(out, "ideal") {
		t.Errorf("Fig11 renderer:\n%s", out)
	}

	fig12 := &Fig12Result{Rows: []Fig12Row{{App: "fft", ReductionPct: 0.0711}}, Mean: 0.0711}
	if out := fig12.String(); !strings.Contains(out, "7.11%") {
		t.Errorf("Fig12 renderer:\n%s", out)
	}

	fig13 := &Fig13Result{
		Rows:        []Fig13Row{{App: "fft", TrafficReductionPct: 0.02, NormalizedEnergy: 0.98}},
		MeanTraffic: 0.02, MeanEnergy: 0.98,
	}
	if out := fig13.String(); !strings.Contains(out, "2.00%") || !strings.Contains(out, "0.980") {
		t.Errorf("Fig13 renderer:\n%s", out)
	}

	fig14 := &Fig14Result{
		Rows: []Fig14Row{{
			App:      "fft",
			Base:     energy.Breakdown{Cache: 0.1, Memory: 0.7, Compute: 0.1, BkRst: 0.1},
			IPEXData: energy.Breakdown{Cache: 0.1, Memory: 0.68, Compute: 0.1, BkRst: 0.1},
			IPEXBoth: energy.Breakdown{Cache: 0.1, Memory: 0.65, Compute: 0.1, BkRst: 0.1},
		}},
		MemoryReduction: 0.07, TotalReduction: 0.05,
	}
	if out := fig14.String(); !strings.Contains(out, "+IPEX(I+D)") || !strings.Contains(out, "0.650") {
		t.Errorf("Fig14 renderer:\n%s", out)
	}

	fig15 := &Fig15Result{
		Rows:   []Fig15Row{{App: "fft", IMiss: 0.02, IMissIPEX: 0.0208, DMiss: 0.05, DMissIPEX: 0.0502}},
		IDelta: 0.0008, DDelta: 0.0002,
	}
	if out := fig15.String(); !strings.Contains(out, "+0.080%") {
		t.Errorf("Fig15 renderer:\n%s", out)
	}

	fig01 := &Fig01Result{Rows: []Fig01Row{{CacheSize: 8192, Speedup: 0.7, LeakPct: 0.54}}}
	if out := fig01.String(); !strings.Contains(out, "8kB") || !strings.Contains(out, "54.00%") {
		t.Errorf("Fig01 renderer:\n%s", out)
	}

	fig02 := &Fig02Result{Rows: []Fig02Row{{App: "pegwitd", IStall: 0.1, DStall: 0.6}}, IGmean: 0.1, DGmean: 0.6}
	if out := fig02.String(); !strings.Contains(out, "60.00%") {
		t.Errorf("Fig02 renderer:\n%s", out)
	}

	t2 := &Table2Result{BaseAccI: 0.5403, IPEXAccI: 0.7288}
	if out := t2.String(); !strings.Contains(out, "54.03%") || !strings.Contains(out, "72.88%") {
		t.Errorf("Table2 renderer:\n%s", out)
	}
}

func TestSizeLabel(t *testing.T) {
	if sizeLabel(256) != "256B" || sizeLabel(2048) != "2kB" || sizeLabel(8192) != "8kB" {
		t.Errorf("size labels: %s %s %s", sizeLabel(256), sizeLabel(2048), sizeLabel(8192))
	}
}

// filterComplete must drop an app whose run is truncated in ANY aligned
// set, keep the rest, and only error when nothing survives.
func TestFilterComplete(t *testing.T) {
	apps := []string{"a", "b", "c"}
	ok := nvp.Result{Completed: true}
	bad := nvp.Result{Completed: false}

	kept, sets, skipped, err := filterComplete(apps,
		[]nvp.Result{ok, bad, ok},
		[]nvp.Result{ok, ok, ok})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 || kept[0] != "a" || kept[1] != "c" {
		t.Errorf("kept = %v", kept)
	}
	if len(skipped) != 1 || skipped[0] != "b" {
		t.Errorf("skipped = %v", skipped)
	}
	for s, rs := range sets {
		if len(rs) != 2 {
			t.Errorf("set %d not filtered: %d results", s, len(rs))
		}
	}

	// All apps truncated somewhere → an error naming the casualties.
	_, _, skipped, err = filterComplete(apps,
		[]nvp.Result{bad, ok, ok},
		[]nvp.Result{ok, bad, bad})
	if err == nil {
		t.Fatal("zero survivors accepted")
	}
	if len(skipped) != 3 {
		t.Errorf("skipped = %v, want all three", skipped)
	}
	if !strings.Contains(err.Error(), "a, b, c") {
		t.Errorf("error does not name the skipped apps: %v", err)
	}
}

// A truncated run no longer aborts the sweep: the app is dropped and the
// figure reports it.
func TestTruncatedRunIsSkippedNotFatal(t *testing.T) {
	o := Options{Scale: 0.05, Apps: []string{"fft"}}.norm()
	// An absurdly small cycle budget forces an incomplete run.
	cfg := nvp.DefaultConfig()
	cfg.MaxCycles = 1000
	sets, err := runConfigs(o, "", []point{{cfg: cfg, tr: o.trace(power.RFHome)}})
	if err != nil {
		t.Fatal(err)
	}
	rs := sets[0]
	if rs[0].Completed {
		t.Fatal("1000-cycle budget completed a run; test premise broken")
	}
	if _, _, _, err := filterComplete(o.Apps, rs); err == nil {
		t.Error("sole truncated app must error (nothing left to aggregate)")
	}
}

func TestSkippedNote(t *testing.T) {
	if skippedNote(nil) != "" {
		t.Error("empty skip list rendered a note")
	}
	note := skippedNote([]string{"fft", "qsort"})
	if !strings.Contains(note, "2 app(s)") || !strings.Contains(note, "fft, qsort") {
		t.Errorf("note = %q", note)
	}
	merged := mergeSkipped([]string{"fft"}, []string{"qsort", "fft"})
	if len(merged) != 2 || merged[0] != "fft" || merged[1] != "qsort" {
		t.Errorf("mergeSkipped = %v", merged)
	}
}
