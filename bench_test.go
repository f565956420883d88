// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation, as indexed in DESIGN.md. Each bench regenerates its
// experiment end-to-end (workload generation, full NVP simulation sweep,
// aggregation) at a reduced workload scale so the whole suite stays
// tractable; `cmd/experiments -all` produces the full-scale numbers that
// EXPERIMENTS.md records.
package ipex

import (
	"os"
	"runtime"
	"testing"
	"time"

	"ipex/internal/benchio"
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

// BenchmarkSimulatorThroughput measures the raw simulator speed (committed
// instructions per second) on the default configuration — the figure that
// bounds every sweep above. Runs go through a per-benchmark Arena, the way
// the sweep harness executes cells.
func BenchmarkSimulatorThroughput(b *testing.B) {
	trace := GenerateTrace(RFHome, 0, 1)
	cfg := DefaultConfig()
	ar := NewArena()
	// Warm up outside the timed region: the first run generates and
	// memoizes the gsme access stream and populates the arena — one-time
	// costs that would otherwise bias short benchmark runs (the historical
	// numbers at -benchtime=10x carried ~10% of stream generation).
	if _, err := ar.Run("gsme", 1.0, trace, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		r, err := ar.Run("gsme", 1.0, trace, cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")

	// With BENCH_HOTLOOP_JSON set (the Makefile's bench target), persist
	// the hot-loop figures so performance travels with the commit. An
	// existing record is updated in place — its experiment timings and
	// notes (the seed baseline) are preserved.
	if path := os.Getenv("BENCH_HOTLOOP_JSON"); path != "" {
		perRun := insts / uint64(b.N)
		nsPerRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := ar.Run("gsme", 1.0, trace, cfg); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m1)

		rec := benchio.NewRecord()
		if old, err := benchio.Read(path); err == nil {
			rec.Scale = old.Scale
			rec.Experiments = old.Experiments
			rec.Notes = old.Notes
		}
		rec.Hotloop = &benchio.Hotloop{
			App: "gsme", Scale: 1, Insts: perRun,
			NsPerInst:    nsPerRun / float64(perRun),
			InstsPerSec:  float64(insts) / b.Elapsed().Seconds(),
			AllocsPerRun: int64(m1.Mallocs - m0.Mallocs),
			BytesPerRun:  int64(m1.TotalAlloc - m0.TotalAlloc),
			FastPaths:    loopConfigs(b, trace),
		}
		if err := benchio.Write(path, rec); err != nil {
			b.Logf("writing %s: %v", path, err)
		}
	}
}

// loopConfigs measures the simulator loop under each configuration the
// repository benchmark's sweeps run: the default system, IPEX on both
// caches, no prefetching, and the paranoid invariant checker.
func loopConfigs(tb testing.TB, trace *Trace) []benchio.FastPath {
	paranoid := DefaultConfig()
	paranoid.Paranoid = true
	return []benchio.FastPath{
		measureLoop(tb, "default", trace, DefaultConfig()),
		measureLoop(tb, "ipex-both", trace, DefaultConfig().WithIPEX()),
		measureLoop(tb, "no-prefetch", trace, DefaultConfig().WithoutPrefetch()),
		measureLoop(tb, "paranoid", trace, paranoid),
	}
}

// measureLoop times the simulator loop under one configuration through a
// warmed arena.
func measureLoop(tb testing.TB, name string, trace *Trace, cfg Config) benchio.FastPath {
	ar := NewArena()
	if _, err := ar.Run("gsme", 1.0, trace, cfg); err != nil {
		tb.Fatal(err)
	}
	// Timed by hand: testing.Benchmark deadlocks when invoked from inside a
	// running benchmark, and this helper serves both the bench's record
	// writer and TestBenchGate.
	const runs = 10
	var insts uint64
	start := time.Now()
	for i := 0; i < runs; i++ {
		r, err := ar.Run("gsme", 1.0, trace, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		insts = r.Insts
	}
	elapsed := time.Since(start)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ar.Run("gsme", 1.0, trace, cfg); err != nil {
			tb.Fatal(err)
		}
	})
	nsPerOp := float64(elapsed.Nanoseconds()) / runs
	return benchio.FastPath{
		Name:         name,
		InstsPerSec:  float64(insts) * 1e9 / nsPerOp,
		NsPerInst:    nsPerOp / float64(insts),
		AllocsPerRun: int64(allocs),
	}
}

// TestBenchGate fails when the live simulator regresses against the
// committed BENCH_hotloop.json: default-configuration throughput more than
// 10% below the recorded figure, or any steady-state allocation at all.
// Wall-clock throughput is machine-dependent, so the gate is opt-in via
// IPEX_BENCH_GATE=1 (`make bench-gate`) and only means something against a
// record generated on a comparable machine (`make bench`).
func TestBenchGate(t *testing.T) {
	if os.Getenv("IPEX_BENCH_GATE") != "1" {
		t.Skip("set IPEX_BENCH_GATE=1 (make bench-gate) to enable")
	}
	rec, err := benchio.Read("BENCH_hotloop.json")
	if err != nil {
		t.Fatalf("reading committed record (regenerate with `make bench`): %v", err)
	}
	if rec.Hotloop == nil {
		t.Fatal("committed record has no hotloop section; regenerate with `make bench`")
	}
	trace := GenerateTrace(RFHome, 0, 1)

	fp := measureLoop(t, "default", trace, DefaultConfig())
	if fp.AllocsPerRun > 0 {
		t.Errorf("steady-state run allocates %d times, want 0", fp.AllocsPerRun)
	}
	// Best of three against the 10%-regression floor: a shared machine
	// swings individual measurements far more than a real regression, and
	// a best-of can only hide noise, not a slowdown.
	best := fp.InstsPerSec
	floor := rec.Hotloop.InstsPerSec * 0.9
	for i := 0; i < 2 && best < floor; i++ {
		if again := measureLoop(t, "default", trace, DefaultConfig()); again.InstsPerSec > best {
			best = again.InstsPerSec
		}
	}
	if best < floor {
		t.Errorf("throughput %.3gM insts/s is >10%% below the committed %.3gM insts/s",
			best/1e6, rec.Hotloop.InstsPerSec/1e6)
	}
}
