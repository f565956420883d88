package power

import (
	"fmt"
	"math"
	"sync"

	"ipex/internal/rng"
)

// Source identifies one of the synthetic ambient-energy sources.
type Source int

const (
	// RFHome models radio-frequency harvesting in a home: weak, bursty
	// power with long quiet gaps (the paper's weakest source).
	RFHome Source = iota
	// RFOffice models RF harvesting in an office: bursty like RFHome but
	// with somewhat denser bursts.
	RFOffice
	// Solar models an indoor photovoltaic cell: a relatively high share of
	// stable energy with slow drift and occasional shading dips.
	Solar
	// Thermal models a thermoelectric generator: the most stable source,
	// moderate power with small noise.
	Thermal
)

// Sources lists all synthetic sources in the order the paper's Figure 23
// sweeps them (most stable first).
var Sources = []Source{Thermal, Solar, RFOffice, RFHome}

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case RFHome:
		return "RFHome"
	case RFOffice:
		return "RFOffice"
	case Solar:
		return "solar"
	case Thermal:
		return "thermal"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// ParseSource maps a name (as printed by String) back to a Source.
func ParseSource(name string) (Source, error) {
	for _, s := range Sources {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("power: unknown source %q (want RFHome, RFOffice, solar, or thermal)", name)
}

// DefaultTraceSamples is the default generated trace length: 50k samples =
// 0.5 s of harvesting, long enough that replay wraparound does not correlate
// with program phase.
const DefaultTraceSamples = 50_000

// shared memoizes default-length traces by (source, seed) for Shared.
var shared sync.Map // sharedKey → *Trace

type sharedKey struct {
	src  Source
	seed uint64
}

// Shared returns the process-wide default-length trace of src under seed,
// generating it on first use. Generation is deterministic and traces are
// read-only once built, so every caller of the same (source, seed) pair —
// each experiment of a sweep, each ipexd request — receives the identical
// *Trace instead of re-synthesizing ~50k samples.
func Shared(src Source, seed uint64) *Trace {
	key := sharedKey{src: src, seed: seed}
	if v, ok := shared.Load(key); ok {
		return v.(*Trace)
	}
	v, _ := shared.LoadOrStore(key, Generate(src, DefaultTraceSamples, seed))
	return v.(*Trace)
}

// Generate synthesizes a power trace for the given source. The same
// (source, n, seed) triple always yields the identical trace, so every
// simulator configuration replays exactly the same input energy.
//
// Magnitudes are chosen so that the default NVP configuration (≈14 mW draw
// while running) experiences frequent outages on the RF sources and fewer,
// longer power cycles on solar/thermal — the qualitative regime of §6.7.9.
func Generate(src Source, n int, seed uint64) *Trace {
	if n <= 0 {
		n = DefaultTraceSamples
	}
	r := rng.New(seed ^ (uint64(src)+1)*0x51_7c_c1_b7_27_22_0a_95)
	samples := make([]float64, n)
	// The default NVP draws ≈22 mW while running, so burst power above
	// that pegs the capacitor at Vmax (energy momentarily free — IPEX's
	// high-performance mode), while quiet stretches discharge it toward
	// the outage (energy binding — energy-saving mode). RF sources swing
	// hard between the two; solar/thermal carry a higher share of stable
	// energy, as in the paper's trace characterization (§6.7.9).
	switch src {
	case RFHome:
		genBursty(r, samples, burstyParams{
			onPower: 27e-3, offPower: 1.5e-3, noise: 0.30,
			pOnToOff: 0.12, pOffToOn: 0.03,
		})
	case RFOffice:
		genBursty(r, samples, burstyParams{
			onPower: 26e-3, offPower: 2.2e-3, noise: 0.28,
			pOnToOff: 0.12, pOffToOn: 0.04,
		})
	case Solar:
		genSolar(r, samples)
	case Thermal:
		genThermal(r, samples)
	}
	return &Trace{Name: src.String(), Samples: samples}
}

type burstyParams struct {
	onPower, offPower  float64 // watts
	noise              float64 // relative sigma while on
	pOnToOff, pOffToOn float64
}

// genBursty produces a two-state (burst / quiet) Markov-modulated power
// stream: the canonical shape of opportunistic RF harvesting.
func genBursty(r *rng.RNG, out []float64, p burstyParams) {
	on := r.Float64() < 0.5
	for i := range out {
		if on {
			if r.Float64() < p.pOnToOff {
				on = false
			}
		} else if r.Float64() < p.pOffToOn {
			on = true
		}
		if on {
			v := p.onPower * (1 + p.noise*r.Norm())
			if v < 0 {
				v = 0
			}
			out[i] = v
		} else {
			out[i] = p.offPower * (1 + 0.1*r.Norm())
			if out[i] < 0 {
				out[i] = 0
			}
		}
	}
}

// genSolar produces slow sinusoidal drift around a healthy mean with
// occasional multi-millisecond shading dips. A significant portion of poor
// energy remains, matching the paper's observation that even solar traces
// cause frequent outages with a 0.47 µF capacitor.
func genSolar(r *rng.RNG, out []float64) {
	const mean = 15e-3
	shade := 0
	for i := range out {
		if shade == 0 && r.Float64() < 0.0003 {
			shade = 200 + r.Intn(800) // 2–10 ms dip
		}
		drift := 1 + 0.45*math.Sin(2*math.Pi*float64(i)/9000)
		v := mean * drift * (1 + 0.06*r.Norm())
		if shade > 0 {
			shade--
			v *= 0.08
		}
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
}

// genThermal produces the steadiest stream: a slowly wandering mean with
// small noise.
func genThermal(r *rng.RNG, out []float64) {
	level := 18e-3
	for i := range out {
		// Ornstein–Uhlenbeck-style mean reversion keeps the level bounded.
		level += 0.001*(18e-3-level) + 0.05e-3*r.Norm()
		if level < 2e-3 {
			level = 2e-3
		}
		v := level * (1 + 0.03*r.Norm())
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
}
