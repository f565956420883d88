// Command ipexsim runs one NVP simulation and prints its statistics.
//
// Examples:
//
//	ipexsim -app fft                         # baseline prefetchers, RFHome
//	ipexsim -app fft -ipex both              # with IPEX on both caches
//	ipexsim -app pegwitd -iprefetch none -dprefetch none
//	ipexsim -app gsme -source solar -capacitor 4.7e-6
//	ipexsim -app qsort -tracefile mylog.txt  # replay a recorded power log
//	ipexsim -app fft -scale 0.1 -trace events.jsonl -metrics metrics.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ipex/internal/benchio"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/fault"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/stats"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

func main() {
	var (
		app        = flag.String("app", "fft", "workload: one of "+strings.Join(workload.Names(), ", "))
		scale      = flag.Float64("scale", 1.0, "workload length multiplier")
		sourceName = flag.String("source", "RFHome", "synthetic power source: RFHome, RFOffice, solar, thermal")
		traceFile  = flag.String("tracefile", "", "replay a recorded power-trace text file instead of a synthetic source")
		tracePath  = flag.String("trace", "", "stream a JSONL event trace of the run to this file")
		metricsOut = flag.String("metrics", "", "write an end-of-run metrics dump to this file")
		metricsFmt = flag.String("metrics-format", "json", "metrics dump format: json or prom (Prometheus text exposition)")
		profileRun = flag.Bool("profile", false, "attribute every cycle and nanojoule to a category and print the report")
		ipexMode   = flag.String("ipex", "off", "IPEX attachment: off, data, both")
		iPf        = flag.String("iprefetch", "sequential", "instruction prefetcher: sequential, markov, tifs, ampm, none")
		dPf        = flag.String("dprefetch", "stride", "data prefetcher: stride, ghb, bo, ampm, none")
		degree     = flag.Int("degree", 2, "initial prefetch degree (R_ipd)")
		icache     = flag.Int("icache", energy.DefaultCacheSize, "ICache bytes")
		dcache     = flag.Int("dcache", energy.DefaultCacheSize, "DCache bytes")
		ways       = flag.Int("ways", 4, "cache associativity")
		bufEntries = flag.Int("pbuf", 4, "prefetch buffer entries (16 B each)")
		nvmTech    = flag.String("nvm", "ReRAM", "NVM technology: ReRAM, STTRAM, PCM")
		nvmSize    = flag.Int64("nvmsize", 16<<20, "NVM bytes")
		capF       = flag.Float64("capacitor", 0.47e-6, "capacitance in farads")
		thresholds = flag.Int("thresholds", 2, "IPEX voltage threshold count")
		stepV      = flag.Float64("step", 0.05, "IPEX threshold adaptation step (V)")
		trigger    = flag.Float64("trigger", 0.05, "IPEX throttling-rate trigger")
		ideal      = flag.Bool("ideal", false, "zero backup/restore cost (NVSRAMCache ideal)")
		reissue    = flag.Bool("reissue", false, "reissue throttled prefetches on mode exit (§5.1 extension)")
		bufferMode = flag.Bool("buffermode", false, "keep prefetches in the buffer until use instead of filling the cache")
		cycles     = flag.Int("cycles", 0, "print per-power-cycle telemetry for the first N cycles")
		paranoid   = flag.Bool("paranoid", false, "run the runtime invariant checker and print its report")

		faultSeed     = flag.Uint64("fault-seed", fault.DefaultSeed, "fault-injection seed (same seed + config = identical schedule)")
		adcBits       = flag.Int("adc-bits", 0, "quantize IPEX voltage sensing to an N-bit ADC (0 = ideal analog)")
		sensorNoise   = flag.Float64("sensor-noise", 0, "Gaussian sensor noise stddev in volts")
		sensorDropout = flag.Float64("sensor-dropout", 0, "per-sample probability a sensor reading is lost")
		ckptFail      = flag.Float64("ckpt-fail", 0, "per-block probability a checkpoint write tears and must retry")
		harvestDrop   = flag.Float64("harvest-dropout", 0, "per-sample probability a harvest sample is zeroed")
		harvestSpike  = flag.Float64("harvest-spike", 0, "per-sample probability a harvest sample spikes 4x")
		harvestStorm  = flag.Float64("harvest-storm", 0, "per-sample probability a multi-sample brownout storm begins")
		saveTrace     = flag.String("savetrace", "", "record the workload's access trace to this file and exit")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile    = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	// Validate every numeric flag up front: a nonsense value should die with
	// one clear line here, not as a library error (or NaN-poisoned run)
	// after the workload has been generated. "!(x > 0)" also catches NaN.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fatalf("-scale must be a positive finite number, got %g", *scale)
	}
	if !workload.Known(*app) {
		fatalf("unknown -app %q (want one of %s)", *app, strings.Join(workload.Names(), ", "))
	}
	if *degree < 1 || *degree > prefetch.MaxDegree {
		fatalf("-degree %d out of range [1,%d]", *degree, prefetch.MaxDegree)
	}
	if *icache <= 0 || *dcache <= 0 {
		fatalf("-icache/-dcache must be positive, got %d/%d", *icache, *dcache)
	}
	if *ways <= 0 {
		fatalf("-ways must be positive, got %d", *ways)
	}
	if *bufEntries <= 0 {
		fatalf("-pbuf must be positive, got %d", *bufEntries)
	}
	if *nvmSize <= 0 {
		fatalf("-nvmsize must be positive, got %d", *nvmSize)
	}
	if !(*capF > 0) || math.IsInf(*capF, 0) {
		fatalf("-capacitor must be a positive finite capacitance, got %g", *capF)
	}
	if *thresholds < 1 {
		fatalf("-thresholds must be at least 1, got %d", *thresholds)
	}
	if !(*stepV > 0) || math.IsInf(*stepV, 0) {
		fatalf("-step must be a positive finite voltage, got %g", *stepV)
	}
	if !(*trigger > 0) || math.IsInf(*trigger, 0) {
		fatalf("-trigger must be a positive finite rate, got %g", *trigger)
	}
	if *metricsFmt != "json" && *metricsFmt != "prom" {
		fatalf("unknown -metrics-format %q (want json or prom)", *metricsFmt)
	}

	if *cpuProfile != "" {
		a, err := benchio.NewAtomicFile(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(a); err != nil {
			a.Discard()
			fatalf("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := a.Commit(); err != nil {
				fmt.Fprintf(os.Stderr, "ipexsim: %v\n", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			a, err := benchio.NewAtomicFile(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ipexsim: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(a); err != nil {
				a.Discard()
				fmt.Fprintf(os.Stderr, "ipexsim: %v\n", err)
				return
			}
			if err := a.Commit(); err != nil {
				fmt.Fprintf(os.Stderr, "ipexsim: %v\n", err)
			}
		}()
	}

	cfg := nvp.DefaultConfig()
	cfg.ICacheSize = *icache
	cfg.DCacheSize = *dcache
	cfg.Ways = *ways
	cfg.PrefetchBufEntries = *bufEntries
	cfg.IPrefetcher = prefetch.Kind(*iPf)
	cfg.DPrefetcher = prefetch.Kind(*dPf)
	cfg.InitialDegree = *degree
	cfg.Ideal = *ideal
	cfg.ReissueOnExit = *reissue
	cfg.PrefetchToCache = !*bufferMode
	cfg.Capacitor.CapacitanceFarads = *capF

	var tech energy.NVMTech
	switch *nvmTech {
	case "ReRAM":
		tech = energy.ReRAM
	case "STTRAM":
		tech = energy.STTRAM
	case "PCM":
		tech = energy.PCM
	default:
		fatalf("unknown NVM technology %q", *nvmTech)
	}
	cfg.NVM = energy.NVMFor(tech, *nvmSize)

	cfg.IPEX.Thresholds = nil
	cfg.IPEX.StepV = *stepV
	cfg.IPEX.ThrottleRateTrigger = *trigger
	switch *ipexMode {
	case "off":
	case "data":
		cfg = cfg.WithIPEXData()
	case "both":
		cfg = cfg.WithIPEX()
	default:
		fatalf("unknown -ipex mode %q (want off, data, both)", *ipexMode)
	}
	if cfg.IPEXInst || cfg.IPEXData {
		cfg.IPEX.Thresholds = nvpThresholds(*thresholds, cfg)
	}

	var ptrace *power.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		ptrace, err = power.Load(*traceFile, f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		src, err := power.ParseSource(*sourceName)
		if err != nil {
			fatalf("%v", err)
		}
		ptrace = power.Generate(src, power.DefaultTraceSamples, 1)
	}

	wl, err := workload.New(*app, *scale)
	if err != nil {
		fatalf("%v", err)
	}

	if *saveTrace != "" {
		a, err := benchio.NewAtomicFile(*saveTrace)
		if err != nil {
			fatalf("%v", err)
		}
		if err := workload.WriteTrace(wl, a); err != nil {
			a.Discard()
			fatalf("recording trace: %v", err)
		}
		if err := a.Commit(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", wl.Len(), *app, *saveTrace)
		return
	}

	var tracerOut *benchio.AtomicFile
	if *tracePath != "" {
		a, err := benchio.NewAtomicFile(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		tracerOut = a
		cfg.Tracer = trace.NewJSONL(a)
	}
	if *metricsOut != "" {
		cfg.Metrics = trace.NewRegistry()
	}

	cfg.RecordCycles = *cycles > 0
	cfg.Paranoid = *paranoid
	cfg.Profile = *profileRun
	fc := &fault.Config{
		Seed: *faultSeed,
		Sensor: fault.SensorConfig{
			ADCBits:     *adcBits,
			NoiseV:      *sensorNoise,
			DropoutProb: *sensorDropout,
		},
		Checkpoint: fault.CheckpointConfig{WriteFailProb: *ckptFail},
		Harvest: fault.HarvestConfig{
			DropoutProb: *harvestDrop,
			SpikeProb:   *harvestSpike,
			StormProb:   *harvestStorm,
		},
	}
	if fc.Active() {
		// Validate up front so a bad fault flag dies with one clear line
		// instead of a library error mid-setup.
		if err := fc.Validate(); err != nil {
			fatalf("%v", err)
		}
		cfg.Faults = fc
	}
	res, err := nvp.Run(wl, ptrace, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if cfg.Tracer != nil {
		if err := cfg.Tracer.Flush(); err != nil {
			fatalf("%v", err)
		}
		if err := tracerOut.Commit(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %d trace events to %s\n", cfg.Tracer.Events(), *tracePath)
	}
	if cfg.Metrics != nil {
		a, err := benchio.NewAtomicFile(*metricsOut)
		if err != nil {
			fatalf("%v", err)
		}
		dump := cfg.Metrics.WriteJSON
		if *metricsFmt == "prom" {
			dump = cfg.Metrics.WriteProm
		}
		if err := dump(a); err != nil {
			a.Discard()
			fatalf("writing metrics: %v", err)
		}
		if err := a.Commit(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s metrics to %s\n", *metricsFmt, *metricsOut)
	}
	printResult(res)
	if *cycles > 0 {
		printCycles(res, *cycles)
	}
	if p := res.Profile; p != nil {
		fmt.Printf("\n%s", p.String())
		n := *cycles
		if n <= 0 {
			n = 10
		}
		fmt.Printf("\nper-power-cycle attribution:\n%s", p.CycleTable(n))
	}
}

// printCycles renders the first n power cycles of the telemetry log.
func printCycles(r nvp.Result, n int) {
	var t stats.Table
	t.Header("cycle", "start", "onCycles", "insts", "pf", "throttled", "wiped", "dirty@bk")
	for i, pc := range r.PowerCycleLog {
		if i >= n {
			break
		}
		t.Row(fmt.Sprintf("%d", i), fmt.Sprintf("%d", pc.StartCycle),
			fmt.Sprintf("%d", pc.OnCycles), fmt.Sprintf("%d", pc.Insts),
			fmt.Sprintf("%d", pc.PrefetchIssued), fmt.Sprintf("%d", pc.PrefetchThrottled),
			fmt.Sprintf("%d", pc.WipedUnused), fmt.Sprintf("%d", pc.DirtyAtBackup))
	}
	fmt.Printf("\nper-power-cycle telemetry (%d of %d cycles):\n%s",
		min(n, len(r.PowerCycleLog)), len(r.PowerCycleLog), t.String())
}

func nvpThresholds(k int, cfg nvp.Config) []float64 {
	return core.ThresholdsFor(k, cfg.Capacitor.Vbackup, cfg.Capacitor.Von)
}

func printResult(r nvp.Result) {
	fmt.Printf("app=%s trace=%s completed=%v\n", r.App, r.Trace, r.Completed)
	fmt.Printf("insts=%d cycles=%d (on=%d off=%d) time=%.3f ms outages=%d\n",
		r.Insts, r.Cycles, r.OnCycles, r.OffCycles, r.Seconds()*1e3, r.Outages)
	fmt.Printf("CPI(on)=%.3f stall%%: icache=%s dcache=%s\n",
		float64(r.OnCycles)/float64(r.Insts),
		stats.Pct(stats.Ratio(float64(r.Inst.StallCycles), float64(r.OnCycles))),
		stats.Pct(stats.Ratio(float64(r.Data.StallCycles), float64(r.OnCycles))))
	fmt.Printf("miss%%: icache=%s dcache=%s  bufhit: i=%d d=%d\n",
		stats.Pct(r.Inst.Cache.MissRate()), stats.Pct(r.Data.Cache.MissRate()),
		r.Inst.Cache.BufHits, r.Data.Cache.BufHits)
	fmt.Printf("prefetch issued: i=%d d=%d  throttled: i=%d d=%d  reissued: i=%d d=%d\n",
		r.Inst.PrefetchIssued, r.Data.PrefetchIssued,
		r.Inst.PrefetchThrottled, r.Data.PrefetchThrottled,
		r.Inst.PrefetchReissued, r.Data.PrefetchReissued)
	fmt.Printf("wiped-unused prefetches: i=%d d=%d  addr-gen gated: i=%d d=%d\n",
		r.Inst.WipedUnused(), r.Data.WipedUnused(),
		r.Inst.AddressGenGated, r.Data.AddressGenGated)
	fmt.Printf("accuracy: i=%s d=%s  coverage: i=%s d=%s\n",
		stats.Pct(r.Inst.Accuracy()), stats.Pct(r.Data.Accuracy()),
		stats.Pct(r.Inst.Coverage()), stats.Pct(r.Data.Coverage()))
	e := r.Energy
	fmt.Printf("energy (nJ): total=%.1f cache=%.1f memory=%.1f compute=%.1f bk+rst=%.1f\n",
		e.Total(), e.Cache, e.Memory, e.Compute, e.BkRst)
	fmt.Printf("nvm traffic: demand=%d prefetch=%d wb=%d ckpt=%d restore=%d\n",
		r.NVM.DemandReads, r.NVM.PrefetchReads, r.NVM.WritebackWrites,
		r.NVM.CheckpointWrites, r.NVM.RestoreReads)
	if fs := r.Faults; fs != nil {
		fmt.Printf("faults: sensor samples=%d dropouts=%d stuck=%d  ckpt fails=%d retries=%d rollbacks=%d forced=%d\n",
			fs.SensorSamples, fs.SensorDropouts, fs.SensorStuck,
			fs.CheckpointWriteFailures, fs.CheckpointRetries, fs.CheckpointRollbacks, fs.CheckpointForced)
		fmt.Printf("        harvest dropouts=%d spikes=%d storms=%d  retry cost: %d cycles %.1f nJ\n",
			fs.HarvestDropouts, fs.HarvestSpikes, fs.HarvestStorms, fs.RetryCycles, fs.RetryNJ)
	}
	if rep := r.Invariants; rep != nil {
		fmt.Printf("%s\n", rep.Summary())
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v.String())
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ipexsim: "+format+"\n", args...)
	os.Exit(1)
}
