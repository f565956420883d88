package power

import (
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, src := range Sources {
		a := Generate(src, 5000, 7)
		b := Generate(src, 5000, 7)
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("%v: lengths differ", src)
		}
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				t.Fatalf("%v: sample %d differs (%v vs %v)", src, i, a.Samples[i], b.Samples[i])
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(RFHome, 5000, 1)
	b := Generate(RFHome, 5000, 2)
	same := 0
	for i := range a.Samples {
		if a.Samples[i] == b.Samples[i] {
			same++
		}
	}
	if same > len(a.Samples)/2 {
		t.Errorf("different seeds produced %d/%d identical samples", same, len(a.Samples))
	}
}

func TestGenerateNonNegative(t *testing.T) {
	for _, src := range Sources {
		tr := Generate(src, 20000, 3)
		for i, v := range tr.Samples {
			if v < 0 {
				t.Fatalf("%v sample %d negative: %v", src, i, v)
			}
		}
	}
}

func TestGenerateDefaultLength(t *testing.T) {
	tr := Generate(RFHome, 0, 1)
	if len(tr.Samples) != DefaultTraceSamples {
		t.Errorf("default length = %d, want %d", len(tr.Samples), DefaultTraceSamples)
	}
}

func TestSourceCharacteristics(t *testing.T) {
	// §6.7.9: solar and thermal carry a higher share of stable energy
	// than the RF sources. Measure stability as the fraction of samples
	// above half the source's own mean.
	stability := func(tr *Trace) float64 {
		mean := tr.MeanPower()
		n := 0
		for _, v := range tr.Samples {
			if v > mean/2 {
				n++
			}
		}
		return float64(n) / float64(len(tr.Samples))
	}
	rf := stability(Generate(RFHome, 40000, 1))
	th := stability(Generate(Thermal, 40000, 1))
	so := stability(Generate(Solar, 40000, 1))
	if th <= rf || so <= rf {
		t.Errorf("stability ordering violated: thermal=%.2f solar=%.2f RFHome=%.2f", th, so, rf)
	}
}

func TestRFBurstsExceedSystemDraw(t *testing.T) {
	// The bimodal IPEX regime requires RF bursts above the ~22 mW run
	// draw and quiet power well below it.
	tr := Generate(RFHome, 40000, 1)
	above, below := 0, 0
	for _, v := range tr.Samples {
		if v > 22e-3 {
			above++
		}
		if v < 5e-3 {
			below++
		}
	}
	if above < len(tr.Samples)/20 {
		t.Errorf("too few burst samples above draw: %d/%d", above, len(tr.Samples))
	}
	if below < len(tr.Samples)/4 {
		t.Errorf("too few quiet samples: %d/%d", below, len(tr.Samples))
	}
}

func TestParseSource(t *testing.T) {
	for _, src := range Sources {
		got, err := ParseSource(src.String())
		if err != nil || got != src {
			t.Errorf("ParseSource(%q) = %v, %v", src.String(), got, err)
		}
	}
	if _, err := ParseSource("fusion"); err == nil {
		t.Error("ParseSource accepted an unknown source")
	}
}

func TestSourceStringUnknown(t *testing.T) {
	if s := Source(42).String(); s != "Source(42)" {
		t.Errorf("unknown source String() = %q", s)
	}
}

func TestMeanPowerBands(t *testing.T) {
	// Keep each source in its calibrated band so simulator-level tests
	// stay meaningful: RF means are a few mW, solar/thermal 10–20 mW.
	bands := map[Source][2]float64{
		RFHome:   {3e-3, 12e-3},
		RFOffice: {4e-3, 14e-3},
		Solar:    {9e-3, 22e-3},
		Thermal:  {14e-3, 22e-3},
	}
	for src, b := range bands {
		m := Generate(src, 40000, 1).MeanPower()
		if m < b[0] || m > b[1] {
			t.Errorf("%v mean power %.4f W outside [%v, %v]", src, m, b[0], b[1])
		}
	}
}

func TestSharedOneInstancePerSourceSeed(t *testing.T) {
	for _, src := range Sources {
		for _, seed := range []uint64{1, 2} {
			a, b := Shared(src, seed), Shared(src, seed)
			if a != b {
				t.Fatalf("%v seed %d: Shared returned two instances", src, seed)
			}
			fresh := Generate(src, DefaultTraceSamples, seed)
			if a.Name != fresh.Name || len(a.Samples) != len(fresh.Samples) {
				t.Fatalf("%v seed %d: shared trace %q/%d, fresh %q/%d", src, seed, a.Name, len(a.Samples), fresh.Name, len(fresh.Samples))
			}
			for i := range a.Samples {
				if a.Samples[i] != fresh.Samples[i] {
					t.Fatalf("%v seed %d: sample %d = %v, fresh Generate %v", src, seed, i, a.Samples[i], fresh.Samples[i])
				}
			}
		}
	}
	if Shared(RFHome, 1) == Shared(RFHome, 2) || Shared(RFHome, 1) == Shared(Solar, 1) {
		t.Fatal("distinct (source, seed) pairs share one trace")
	}
}
