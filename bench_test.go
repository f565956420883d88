// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation, as indexed in DESIGN.md. Each bench regenerates its
// experiment end-to-end (workload generation, full NVP simulation sweep,
// aggregation) at a reduced workload scale so the whole suite stays
// tractable; `cmd/experiments -all` produces the full-scale numbers that
// EXPERIMENTS.md records.
package ipex

import (
	"testing"

	"ipex/internal/experiments"
)

// benchOpts keeps a single benchmark iteration around a few hundred
// milliseconds: three representative apps (one stream-heavy, one
// irregular, one balanced) at 10% workload length.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale: 0.1,
		Apps:  []string{"gsme", "pegwitd", "jpegd"},
	}
}

func benchRun[T any](b *testing.B, f func(experiments.Options) (T, error)) {
	b.Helper()
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig01CacheSizeLeakage regenerates Figure 1: speedup and cache
// leakage share across 256 B – 8 kB caches, prefetchers off.
func BenchmarkFig01CacheSizeLeakage(b *testing.B) { benchRun(b, experiments.Fig01) }

// BenchmarkFig02StallBreakdown regenerates Figure 2: per-app pipeline-stall
// shares from ICache and DCache misses.
func BenchmarkFig02StallBreakdown(b *testing.B) { benchRun(b, experiments.Fig02) }

// BenchmarkFig04MinUsefulProbability regenerates Figure 4: the Inequality-4
// minimum useful-prefetch probability curves.
func BenchmarkFig04MinUsefulProbability(b *testing.B) { benchRun(b, experiments.Fig04) }

// BenchmarkSec61HardwareOverhead regenerates §6.1: IPEX's register count
// and area fraction.
func BenchmarkSec61HardwareOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Overhead(2).TotalBits != 198 {
			b.Fatal("overhead changed")
		}
	}
}

// BenchmarkFig10Speedup regenerates Figure 10: speedups over the
// NVSRAMCache baseline (no-prefetch / +IPEX data / +IPEX both), RFHome.
func BenchmarkFig10Speedup(b *testing.B) { benchRun(b, experiments.Fig10) }

// BenchmarkFig11IdealSpeedup regenerates Figure 11: the same comparison
// against the zero-checkpoint-cost NVSRAMCache (ideal).
func BenchmarkFig11IdealSpeedup(b *testing.B) { benchRun(b, experiments.Fig11) }

// BenchmarkFig12PrefetchReduction regenerates Figure 12: prefetch-operation
// reduction under IPEX.
func BenchmarkFig12PrefetchReduction(b *testing.B) { benchRun(b, experiments.Fig12) }

// BenchmarkFig13TrafficEnergy regenerates Figure 13: main-memory traffic
// reduction and normalized energy.
func BenchmarkFig13TrafficEnergy(b *testing.B) { benchRun(b, experiments.Fig13) }

// BenchmarkFig14EnergyBreakdown regenerates Figure 14: normalized energy
// breakdowns (cache/memory/compute/bk+rst) for the three configurations.
func BenchmarkFig14EnergyBreakdown(b *testing.B) { benchRun(b, experiments.Fig14) }

// BenchmarkFig15MissRates regenerates Figure 15: cache miss rates with and
// without IPEX.
func BenchmarkFig15MissRates(b *testing.B) { benchRun(b, experiments.Fig15) }

// BenchmarkTable2AccuracyCoverage regenerates Table 2: prefetch accuracy
// and coverage with and without IPEX.
func BenchmarkTable2AccuracyCoverage(b *testing.B) { benchRun(b, experiments.Table2) }

// BenchmarkTable3InstPrefetchers regenerates Table 3: IPEX's speedup with
// sequential, Markov, and TIFS instruction prefetchers.
func BenchmarkTable3InstPrefetchers(b *testing.B) { benchRun(b, experiments.Table3) }

// BenchmarkTable4DataPrefetchers regenerates Table 4: IPEX's speedup with
// stride, GHB, and best-offset data prefetchers.
func BenchmarkTable4DataPrefetchers(b *testing.B) { benchRun(b, experiments.Table4) }

// BenchmarkFig16ThresholdCounts regenerates Figure 16: the voltage
// threshold count sweep (1–3).
func BenchmarkFig16ThresholdCounts(b *testing.B) { benchRun(b, experiments.Fig16) }

// BenchmarkFig17PrefetchBuffers regenerates Figure 17: the prefetch-buffer
// size sweep (32/64/128 B).
func BenchmarkFig17PrefetchBuffers(b *testing.B) { benchRun(b, experiments.Fig17) }

// BenchmarkFig18CacheSizes regenerates Figure 18: the cache-size sweep with
// IPEX (256 B – 8 kB).
func BenchmarkFig18CacheSizes(b *testing.B) { benchRun(b, experiments.Fig18) }

// BenchmarkFig19Associativity regenerates Figure 19: the associativity
// sweep (1/2/4/8 ways).
func BenchmarkFig19Associativity(b *testing.B) { benchRun(b, experiments.Fig19) }

// BenchmarkFig20MemorySizes regenerates Figure 20: the main-memory size
// sweep (2–32 MB).
func BenchmarkFig20MemorySizes(b *testing.B) { benchRun(b, experiments.Fig20) }

// BenchmarkFig21NVMTech regenerates Figure 21: the ReRAM/STT-RAM/PCM sweep.
func BenchmarkFig21NVMTech(b *testing.B) { benchRun(b, experiments.Fig21) }

// BenchmarkFig22CapacitorSizes regenerates Figure 22: the capacitor-size
// sweep (0.47–1000 µF).
func BenchmarkFig22CapacitorSizes(b *testing.B) { benchRun(b, experiments.Fig22) }

// BenchmarkFig23PowerTraces regenerates Figure 23: the
// thermal/solar/RFOffice/RFHome sweep.
func BenchmarkFig23PowerTraces(b *testing.B) { benchRun(b, experiments.Fig23) }

// BenchmarkFig24VoltageSteps regenerates Figure 24: the threshold
// adaptation step-size sweep (0.05–0.15 V).
func BenchmarkFig24VoltageSteps(b *testing.B) { benchRun(b, experiments.Fig24) }

// BenchmarkFig25ThrottleRates regenerates Figure 25: the throttle-rate
// trigger sweep (1–20%).
func BenchmarkFig25ThrottleRates(b *testing.B) { benchRun(b, experiments.Fig25) }
