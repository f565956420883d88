package nvp

import (
	"context"
	"fmt"

	"ipex/internal/cache"
	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/fault"
	"ipex/internal/mem"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/profile"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

// side bundles the per-cache-side hardware: cache, prefetch buffer,
// prefetcher, IPEX controller, and statistics.
type side struct {
	name   string
	cache  *cache.Cache
	buf    *cache.PrefetchBuffer
	pf     prefetch.Prefetcher
	ctl    *core.Controller
	params energy.CacheParams
	stats  SideStats
	cands  []uint64 // scratch candidate list, reused per access
	// inflight stages issued-but-incomplete prefetch reads in
	// prefetch-to-cache mode; its capacity is the prefetch buffer size.
	inflight []pfReq
	// agNJ is the prefetcher's per-trigger address-generation energy
	// (§5.2), zero for register-based prefetchers.
	agNJ float64
	// quietHits marks a side whose plain demand hits need no prefetcher
	// call: no prefetcher, or a hit-indifferent one with zero
	// address-generation cost (prefetch.HitIndifferent). Such hits skip the
	// observation, and with no profiler attached they end at run's cache
	// probe, without changing any simulated state or statistic.
	quietHits bool
	// minReady is a watermark at or below the earliest readyAt in
	// inflight (noReady when empty). drainPrefetches returns in O(1)
	// while now < minReady — the common case, since it runs on every
	// access but prefetch reads take tens of cycles to complete. The
	// watermark may go stale-low after a removal (never stale-high), so
	// it only ever causes a redundant scan, never a missed drain.
	minReady uint64
	// throttledQ remembers IPEX-throttled candidate blocks for the
	// ReissueOnExit extension (bounded FIFO).
	throttledQ []uint64
}

// noReady is the minReady watermark of an empty in-flight queue.
const noReady = ^uint64(0)

// throttledQCap bounds the reissue queue (ReissueOnExit): roughly one
// power cycle's worth of suppressed stream heads.
const throttledQCap = 16

// pfReq is one outstanding prefetch read.
type pfReq struct {
	block   uint64
	readyAt uint64
}

// findInflight returns the index of block in the in-flight queue, or -1.
// The queue is bounded by Config.PrefetchBufEntries (≤ 8 in every evaluated
// configuration), so a linear scan beats a block→index map: no hashing, no
// allocation, and the whole queue fits in one cache line. The minReady
// watermark, not a map, is what makes the per-access drain O(1).
func (sd *side) findInflight(block uint64) int {
	for i := range sd.inflight {
		if sd.inflight[i].block == block {
			return i
		}
	}
	return -1
}

// removeInflight drops entry i, preserving order.
func (sd *side) removeInflight(i int) {
	sd.inflight = append(sd.inflight[:i], sd.inflight[i+1:]...)
}

// System is one assembled NVP simulation. Build with NewSystem, drive with
// Run (or Step for fine-grained tests).
type System struct {
	cfg   Config
	wl    workload.Generator
	trace *power.Trace

	cap  *capacitor.Capacitor
	nvm  *mem.NVM
	inst side
	data side

	// Absolute time in cycles and the accounting split.
	now       uint64
	onCycles  uint64
	offCycles uint64
	outages   uint64
	insts     uint64

	// Pending dynamic energy per bucket, drained once per instruction.
	pend energy.Breakdown
	// Accumulated consumed energy.
	consumed energy.Breakdown

	// Per-cycle leakage constants (nJ/cycle), split by bucket.
	leakCacheNJ   float64
	leakMemNJ     float64
	leakComputeNJ float64

	// Harvest sample cache: samplePow is trace.PowerAt for the sample
	// window ending at cycle sampleEnd. The trace is piecewise-constant
	// over SampleIntervalCycles windows and simulated time is monotonic,
	// so one lookup per window replaces one per harvested chunk.
	sampleEnd uint64
	samplePow float64

	// dirtyScratch is the reused checkpoint address buffer; outage()
	// refills it instead of allocating a fresh DirtyAddrs slice per
	// power failure.
	dirtyScratch []uint64

	maxCycles uint64

	// Telemetry (Config.RecordCycles) and guard-band accounting.
	guardViolations uint64
	cycleLog        []PowerCycleStats
	mark            cycleMark

	// tr, when non-nil, receives the event stream (Config.Tracer); pcIdx is
	// the 0-based power-cycle index the tracer clock stamps on every event.
	tr    *trace.Tracer
	pcIdx uint64

	// flt holds the fault injectors (Config.Faults), par the runtime
	// invariant checker (Config.Paranoid), and prof the attribution
	// profiler (Config.Profile); all are nil when disabled and every
	// integration site costs one nil compare then.
	flt  *faultRuntime
	par  *paranoid
	prof *profiler
	// parState backs par, so the checker lives wherever the System does.
	// reports is the slab each paranoid Result's own report is carved
	// from: a warm Arena allocates one slab of 16 per 16 paranoid runs.
	parState paranoid
	reports  []fault.Report
	// ledgered caches par != nil || prof != nil: some observer keeps a
	// drain ledger, so drain reports every applied drain.
	ledgered bool

	// ctx, when non-nil (RunContext), is polled at power-cycle boundaries:
	// a cancelled run stops cleanly after the next reboot with
	// Completed=false, exactly like a run that exhausted its cycle budget.
	// Checking only at outages keeps the per-instruction hot loop free of
	// any context overhead; cancellation latency is one power cycle.
	ctx context.Context
}

// cycleMark snapshots the counters at the start of a power cycle so the
// per-cycle deltas can be computed at the outage.
type cycleMark struct {
	startCycle uint64
	onCycles   uint64
	insts      uint64
	issued     uint64
	throttled  uint64
	wiped      uint64
	// Per-side demand-stream snapshots for the cycle_stats trace event.
	instAccesses uint64
	instMisses   uint64
	dataAccesses uint64
	dataMisses   uint64
}

// NewSystem builds a system for one workload and power trace.
func NewSystem(wl workload.Generator, trace *power.Trace, cfg Config) (*System, error) {
	return newSystem(nil, wl, trace, cfg)
}

// newSystem assembles a system, recycling the arena's components where their
// configuration matches (a nil arena builds everything fresh — the classic
// NewSystem path). Every recycled component is Reset to its
// just-constructed state first, so an arena-assembled system starts
// bit-identical to a fresh one; the arena-vs-fresh determinism tests and
// the golden suite pin that equivalence.
func newSystem(a *Arena, wl workload.Generator, trace *power.Trace, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl == nil {
		return nil, fmt.Errorf("nvp: nil workload")
	}
	if trace == nil {
		return nil, fmt.Errorf("nvp: nil power trace")
	}
	// The capacitor is pure value state: reusable whenever the
	// configuration matches (the boot SetVoltage below defines its whole
	// initial state). The energy-cutoff converter rides along — the method
	// value is the one closure allocation NewSystem cannot avoid, so the
	// arena caches it with the capacitor.
	var cp *capacitor.Capacitor
	var cutoff func(v float64) float64
	if a != nil && a.cap != nil && a.capCfg == cfg.Capacitor {
		cp, cutoff = a.cap, a.cutoff
	} else {
		var err error
		cp, err = capacitor.New(cfg.Capacitor)
		if err != nil {
			return nil, err
		}
		cutoff = cp.EnergyCutoffNJ
		if a != nil {
			a.cap, a.capCfg, a.cutoff = cp, cfg.Capacitor, cutoff
		}
	}

	buildSide := func(slot *sideSlot, prev *side, name string, size int, kind prefetch.Kind, factory func() prefetch.Prefetcher, ipexOn bool) (side, error) {
		params := energy.CacheFor(size, cfg.Ways)
		var c *cache.Cache
		if slot != nil && slot.cache != nil && slot.params == params {
			c = slot.cache
			c.Reset()
		} else {
			var err error
			c, err = cache.New(params)
			if err != nil {
				return side{}, err
			}
			if slot != nil {
				slot.cache, slot.params = c, params
			}
		}
		bufDepth := cfg.PrefetchBufEntries
		if bufDepth < 1 {
			bufDepth = 1 // NewPrefetchBuffer's clamp
		}
		var b *cache.PrefetchBuffer
		if slot != nil && slot.buf != nil && slot.buf.Size() == bufDepth {
			b = slot.buf
			b.Reset()
		} else {
			b = cache.NewPrefetchBuffer(cfg.PrefetchBufEntries)
			if slot != nil {
				slot.buf = b
			}
		}
		// A factory-built prefetcher is never recycled: the factory contract
		// is one fresh instance per run. Built-in kinds are recycled via
		// their Reset, which restores the virgin table state.
		var pf prefetch.Prefetcher
		if factory != nil {
			pf = factory()
		} else if slot != nil && slot.pf != nil && slot.pfKind == kind {
			pf = slot.pf
			pf.Reset()
		} else {
			var err error
			if pf, err = prefetch.New(kind); err != nil {
				return side{}, err
			}
			if slot != nil {
				slot.pf, slot.pfKind = pf, kind
			}
		}
		ipexCfg := cfg.IPEX
		ipexCfg.Enabled = ipexOn && pf != nil
		ipexCfg.InitialDegree = cfg.InitialDegree
		var ctl *core.Controller
		if slot != nil && slot.ctl != nil && ipexCfgEqual(slot.ctlCfg, ipexCfg) {
			ctl = slot.ctl
			ctl.Reset()
		} else {
			var err error
			ctl, err = core.NewController(ipexCfg)
			if err != nil {
				return side{}, err
			}
			if slot != nil {
				slot.ctl, slot.ctlCfg = ctl, ipexCfg
			}
		}
		// Let the controller compare capacitor energy against precomputed
		// per-threshold energy cutoffs instead of taking a square root per
		// observation; the cutoffs are exact (bit-identical decisions).
		ctl.UseEnergyCutoffs(cutoff)
		sd := side{
			name:     name,
			cache:    c,
			buf:      b,
			pf:       pf,
			ctl:      ctl,
			params:   params,
			minReady: noReady,
		}
		if coster, ok := pf.(prefetch.AddressGenCoster); ok {
			sd.agNJ = coster.AddressGenNJ()
		}
		// Hits may skip the observation only when the prefetcher ignores
		// them AND charges no per-access address-generation energy —
		// otherwise the skip would change the energy ledger.
		if hi, ok := pf.(prefetch.HitIndifferent); pf == nil || ok && hi.HitIndifferent() && sd.agNJ == 0 {
			sd.quietHits = true
		}
		// Metrics wrapping happens after the interface probes above: the
		// wrapper intentionally hides AddressGenCoster/HitIndifferent, and
		// agNJ/quietHits must describe the real prefetcher. The wrapper is
		// built per run; only the raw prefetcher lives in the arena slot.
		if pf != nil && cfg.Metrics != nil {
			sd.pf = prefetch.NewInstrument(pf, cfg.Metrics, name)
		}
		// Scratch buffers keep their previous run's capacity ([:0] reuse).
		if prev != nil {
			sd.cands = prev.cands[:0]
			sd.inflight = prev.inflight[:0]
			sd.throttledQ = prev.throttledQ[:0]
		}
		return sd, nil
	}

	var instSlot, dataSlot *sideSlot
	var prevInst, prevData *side
	var prevDirty []uint64
	var prevReports []fault.Report
	if a != nil {
		instSlot, dataSlot = &a.instSlot, &a.dataSlot
		prevInst, prevData = &a.sys.inst, &a.sys.data
		prevDirty, prevReports = a.sys.dirtyScratch, a.sys.reports
	}
	is, err := buildSide(instSlot, prevInst, "icache", cfg.ICacheSize, cfg.IPrefetcher, cfg.IPrefetcherFactory, cfg.IPEXInst)
	if err != nil {
		return nil, err
	}
	ds, err := buildSide(dataSlot, prevData, "dcache", cfg.DCacheSize, cfg.DPrefetcher, cfg.DPrefetcherFactory, cfg.IPEXData)
	if err != nil {
		return nil, err
	}

	var nv *mem.NVM
	if a != nil && a.nvm != nil {
		nv = a.nvm
		nv.Reset(cfg.NVM)
	} else {
		nv = mem.New(cfg.NVM)
		if a != nil {
			a.nvm = nv
		}
	}

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}

	var s *System
	if a != nil {
		s = &a.sys
	} else {
		s = &System{}
	}
	// Whole-struct assignment: every per-run field (clocks, pending energy,
	// telemetry, observers) restarts from its zero value exactly as a fresh
	// System would. cycleLog deliberately restarts nil, never [:0] — the
	// previous run's Result aliases its backing array via PowerCycleLog.
	*s = System{
		cfg:       cfg,
		wl:        wl,
		trace:     trace,
		cap:       cp,
		nvm:       nv,
		inst:      is,
		data:      ds,
		maxCycles: maxCycles,

		dirtyScratch: prevDirty[:0],
		reports:      prevReports,

		leakCacheNJ:   energy.LeakNJPerCycle(is.params.LeakMW) + energy.LeakNJPerCycle(ds.params.LeakMW),
		leakMemNJ:     energy.LeakNJPerCycle(cfg.NVM.LeakMW),
		leakComputeNJ: energy.LeakNJPerCycle(energy.CoreLeakMW),
	}
	if cfg.Tracer != nil {
		s.tr = cfg.Tracer
		for _, sd := range [2]*side{&s.inst, &s.data} {
			sd.cache.SetTracer(cfg.Tracer, sd.name)
			sd.buf.SetTracer(cfg.Tracer, sd.name)
			sd.ctl.SetTracer(cfg.Tracer, sd.name)
		}
	}
	s.flt = newFaultRuntime(cfg.Faults, cfg.Capacitor.Vmax, s.tr)
	// The system boots with the capacitor at Von: the reboot threshold is
	// the defined start-of-power-cycle state.
	s.cap.SetVoltage(cfg.Capacitor.Von)
	if cfg.Paranoid {
		s.parState.cycleStartE = s.cap.EnergyNJ()
		s.par = &s.parState
	}
	if cfg.Profile {
		s.prof = newProfiler()
	}
	s.ledgered = s.par != nil || s.prof != nil
	return s, nil
}

// Run executes the workload to completion (or the cycle budget) and
// returns the result.
func Run(wl workload.Generator, trace *power.Trace, cfg Config) (Result, error) {
	s, err := NewSystem(wl, trace, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.run()
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the simulation stops cleanly at the next power-cycle boundary (after the
// JIT checkpoint, outage, and reboot complete) and returns the partial
// result with Completed=false and a nil error — the same contract as a run
// that exhausted its MaxCycles budget, so every downstream consumer
// (skipped-app filtering, journaling) handles it identically. Inspect
// ctx.Err() to distinguish cancellation from budget truncation. A nil ctx
// behaves exactly like Run.
func RunContext(ctx context.Context, wl workload.Generator, trace *power.Trace, cfg Config) (Result, error) {
	s, err := NewSystem(wl, trace, cfg)
	if err != nil {
		return Result{}, err
	}
	s.ctx = ctx
	return s.run()
}

// run is the simulator's per-instruction loop. Each instruction makes its
// I-side and D-side cache accesses (the prefetchers observe them and issue
// candidates), advances powered time — harvest, leakage, then the
// instruction's pending energy drained from the capacitor — feeds the
// voltage monitor to the IPEX controllers, and runs the JIT checkpoint and
// outage once the charge falls below the backup threshold.
//
// The capacitor charge and the instruction's pending energy live in
// locals for the whole loop, and the pending energy travels through access
// and its helpers by value; they are written back to the System fields
// only where other code reads them: around outage() and before result(),
// and the charge before a faulted sensor samples the capacitor voltage.
// The clock, the instruction and on-cycle counts and the consumed energy
// stay in their fields: Go spills every value live across a call, so a
// counter touched once per instruction costs the same there, and each
// extra loop-carried local adds register moves to every iteration (the
// fields also keep s.now current for an attached tracer's event clock).
// The paranoid and profiler drain ledgers are fed inline by bank and
// drain. Every observer and ablation is a nil or flag check in this one
// body; with them off, each check is loop-invariant and perfectly
// predicted.
//
// Bit-identity: every floating-point sum keeps one fixed operand order —
// pending cache and memory energy accumulate I-side, D-side, then leakage;
// the drained total is ((cache+memory)+compute), the pending BkRst bucket
// being identically zero between outages — and the golden fixtures
// (testdata/golden_rfhome.json, testdata/golden_loops.json) pin it.
func (s *System) run() (Result, error) {
	// A replay cursor (every sweep cell) is walked as its stream's slice;
	// any other Generator is pulled through Next. Both feed the one body.
	wl := s.wl
	cur, _ := wl.(*workload.Cursor)
	var acc []workload.Access
	pos := 0
	if cur != nil {
		acc, pos = cur.Stream().Accesses(), cur.Pos()
	}
	inst, data := &s.inst, &s.data
	sensed := s.flt != nil && s.flt.sensor != nil
	// A disabled controller's ObserveEnergy is a no-op, so with both
	// disabled and no faulted sensor sampling the voltage, the monitor
	// below is dead and skipped without touching any simulated state.
	observe := inst.ctl.Enabled() || data.ctl.Enabled() || sensed
	monitored := sensed || s.cfg.ReissueOnExit
	// A hit on a side with quiet hits ends at the probe unless a profiler
	// needs to attribute it.
	iProbeOnly := inst.quietHits && s.prof == nil
	dProbeOnly := data.quietHits && s.prof == nil

	pCache, pMemory := s.pend.Cache, s.pend.Memory
	e := s.cap.EnergyNJ()

	completed := true
	cancelled := false
	if s.tr != nil {
		s.tr.Begin(wl.Name(), func() (uint64, uint64) { return s.now, s.pcIdx })
		s.tr.Emit(trace.Event{Kind: trace.KindCycleStart})
	}
	for {
		var a workload.Access
		if cur != nil {
			if pos >= len(acc) {
				break
			}
			a = acc[pos]
			pos++
		} else {
			var ok bool
			if a, ok = wl.Next(); !ok {
				break
			}
		}
		s.insts++

		// Instruction fetch. Each side's in-flight drain and cache probe
		// run here and access resolves the rest. The minReady watermark
		// makes the drain a compare in the common nothing-ready case
		// (buffer mode never stages a read in flight, so its watermark
		// stays at noReady).
		if s.now >= inst.minReady {
			pCache, pMemory = s.drainPrefetches(inst, pCache, pMemory)
		}
		hit := inst.cache.Access(a.PC, false)
		pCache += inst.params.AccessNJ
		var istall uint64
		if !hit || !iProbeOnly {
			istall, pCache, pMemory = s.access(inst, a.PC, a.PC, false, hit, pCache, pMemory)
			// A profiler always takes this branch; its per-instruction
			// compute charge must land between the I-side and D-side
			// accesses' charges to the same category.
			if p := s.prof; p != nil {
				p.cyc.Insts++
				p.cyc.Cycles[profile.CycCompute]++
				p.cyc.EnergyNJ[profile.ECompute] += energy.ComputeNJPerInst
			}
		}
		cycles := uint64(1) + istall
		inst.stats.StallCycles += istall
		// The pending compute bucket starts every instruction at zero.
		pCompute := energy.ComputeNJPerInst

		// Data reference.
		if a.HasData {
			if s.now >= data.minReady {
				pCache, pMemory = s.drainPrefetches(data, pCache, pMemory)
			}
			hit := data.cache.Access(a.DataAddr, a.Write)
			pCache += data.params.AccessNJ
			var dstall uint64
			if !hit || !dProbeOnly {
				dstall, pCache, pMemory = s.access(data, a.PC, a.DataAddr, a.Write, hit, pCache, pMemory)
			}
			cycles += dstall
			data.stats.StallCycles += dstall
		}

		// Powered time: harvest over [now, now+cycles), then leakage, then
		// drain the pending energy. An instruction ending inside the cached
		// trace sample — the overwhelmingly common case — harvests one
		// chunk, exactly the integration harvest's window loop would do.
		if s.now < s.sampleEnd && s.sampleEnd-s.now >= cycles {
			e = s.bank(e, power.EnergyNJ(s.samplePow, cycles))
		} else {
			e = s.harvest(e, cycles)
		}
		fc := float64(cycles)
		pCache += s.leakCacheNJ * fc
		pMemory += s.leakMemNJ * fc
		pCompute += s.leakComputeNJ * fc
		if s.prof != nil {
			s.prof.energy(profile.ELeakage, (s.leakCacheNJ+s.leakMemNJ+s.leakComputeNJ)*fc)
		}
		e = s.drain(e, pCache+pMemory+pCompute)
		s.consumed.Cache += pCache
		s.consumed.Memory += pMemory
		s.consumed.Compute += pCompute
		pCache, pMemory = 0, 0
		s.now += cycles
		s.onCycles += cycles

		// Voltage monitor: IPEX observation and outage detection. The
		// monitor compares stored energy against precomputed cutoffs —
		// exactly equivalent to comparing Voltage() against thresholds,
		// without the per-instruction square roots. A faulted sensor and
		// ReissueOnExit take the monitor method; the outage comparator stays
		// exact either way — it models the dedicated analog brown-out
		// detector, not the ADC.
		if observe {
			if monitored {
				pMemory = s.monitor(e, pMemory)
			} else {
				inst.ctl.ObserveEnergy(e)
				data.ctl.ObserveEnergy(e)
			}
		}
		if e < s.cap.BackupCutoffNJ() {
			s.pend.Cache, s.pend.Memory = pCache, pMemory
			s.cap.RestoreEnergyNJ(e)
			s.outage()
			pCache, pMemory = s.pend.Cache, s.pend.Memory
			e = s.cap.EnergyNJ()
			// Cooperative cancellation (RunContext) is honoured only here,
			// right after a reboot: the checkpoint is durable, no simulated
			// state is half-applied, and the hot loop never touches the
			// context. The partial result reports Completed=false exactly
			// like a budget-truncated run.
			if s.ctx != nil && s.ctx.Err() != nil {
				completed = false
				cancelled = true
				break
			}
		}

		if s.now >= s.maxCycles {
			completed = false
			break
		}
	}
	s.pend.Cache, s.pend.Memory = pCache, pMemory
	s.cap.RestoreEnergyNJ(e)
	if cur != nil {
		cur.SetPos(pos)
	}
	if s.tr != nil {
		// The final partial cycle gets its demand-stream deltas too, so the
		// offline analyzer's per-side totals match the Result aggregates.
		s.emitCycleStats()
		detail := "completed"
		if !completed {
			detail = "budget"
		}
		if cancelled {
			detail = "cancelled"
		}
		s.tr.Emit(trace.Event{Kind: trace.KindRunEnd, N: int64(s.insts), Detail: detail})
	}
	return s.result(completed), nil
}

// monitor is the voltage monitor's general form, for a faulted sensor or
// ReissueOnExit: with a sensor fault the true capacitor voltage goes through
// the ADC model and the controllers see what it reports (the voltage-domain
// Observe path, the only correct one once readings stop mapping one-to-one
// onto stored energy); with ReissueOnExit a controller stepping back toward
// high-performance mode replays what was throttled earlier in this power
// cycle. e is the capacitor charge; the reissued reads' energy joins
// pMemory, which is returned.
func (s *System) monitor(e, pMemory float64) float64 {
	var v float64
	sensed := s.flt != nil && s.flt.sensor != nil
	if sensed {
		s.cap.RestoreEnergyNJ(e)
		v = s.flt.sensor.Read(s.cap.Voltage())
	}
	for _, sd := range [2]*side{&s.inst, &s.data} {
		before := sd.ctl.Degree()
		if sensed {
			sd.ctl.Observe(v)
		} else {
			sd.ctl.ObserveEnergy(e)
		}
		if s.cfg.ReissueOnExit && sd.ctl.Degree() > before {
			pMemory = s.reissueThrottled(sd, pMemory)
		}
	}
	return pMemory
}

// snapshotCycle re-marks the counters at a power-cycle boundary.
func (s *System) snapshotCycle() {
	ic, dc := s.inst.cache.Stats(), s.data.cache.Stats()
	s.mark = cycleMark{
		startCycle:   s.now,
		onCycles:     s.onCycles,
		insts:        s.insts,
		issued:       s.inst.stats.PrefetchIssued + s.data.stats.PrefetchIssued,
		throttled:    s.inst.stats.PrefetchThrottled + s.data.stats.PrefetchThrottled,
		wiped:        s.wipedUnusedNow(),
		instAccesses: ic.Accesses,
		instMisses:   ic.Misses,
		dataAccesses: dc.Accesses,
		dataMisses:   dc.Misses,
	}
}

// emitCycleStats streams each cache side's demand-stream deltas for the
// power cycle closing now; paired with the cycle_end (or run_end) event
// that follows it.
func (s *System) emitCycleStats() {
	if s.tr == nil {
		return
	}
	ic, dc := s.inst.cache.Stats(), s.data.cache.Stats()
	s.tr.Emit(trace.Event{Kind: trace.KindCycleStats, Side: s.inst.name,
		Accesses: ic.Accesses - s.mark.instAccesses, Misses: ic.Misses - s.mark.instMisses})
	s.tr.Emit(trace.Event{Kind: trace.KindCycleStats, Side: s.data.name,
		Accesses: dc.Accesses - s.mark.dataAccesses, Misses: dc.Misses - s.mark.dataMisses})
}

// wipedUnusedNow totals outage-destroyed unused prefetches so far.
func (s *System) wipedUnusedNow() uint64 {
	return s.inst.cache.Stats().PrefetchedWiped + s.data.cache.Stats().PrefetchedWiped +
		s.inst.buf.Stats().WipedUnused + s.data.buf.Stats().WipedUnused +
		s.inst.stats.InflightWiped + s.data.stats.InflightWiped
}

// flushCycle appends the finished (or final partial) power cycle to the
// telemetry log.
func (s *System) flushCycle(dirtyAtBackup int) {
	if !s.cfg.RecordCycles {
		return
	}
	s.cycleLog = append(s.cycleLog, PowerCycleStats{
		StartCycle:        s.mark.startCycle,
		OnCycles:          s.onCycles - s.mark.onCycles,
		Insts:             s.insts - s.mark.insts,
		PrefetchIssued:    s.inst.stats.PrefetchIssued + s.data.stats.PrefetchIssued - s.mark.issued,
		PrefetchThrottled: s.inst.stats.PrefetchThrottled + s.data.stats.PrefetchThrottled - s.mark.throttled,
		WipedUnused:       s.wipedUnusedNow() - s.mark.wiped,
		DirtyAtBackup:     dirtyAtBackup,
	})
}

// drainPrefetches moves completed in-flight prefetches into the cache
// (prefetch-to-cache mode) and returns the pending cache and memory energy
// with their cost added. A block whose demand copy arrived first counts as
// a useless (redundant) prefetch. The caller checks the minReady watermark.
func (s *System) drainPrefetches(sd *side, pCache, pMemory float64) (float64, float64) {
	min := uint64(noReady)
	for i := 0; i < len(sd.inflight); {
		e := sd.inflight[i]
		if e.readyAt > s.now {
			if e.readyAt < min {
				min = e.readyAt
			}
			i++
			continue
		}
		sd.removeInflight(i)
		if sd.cache.Contains(e.block) {
			// Redundant: a demand fill won the race; the read energy is
			// wasted (this is what §5.1's suppression avoids).
			sd.stats.InflightRedundant++
			continue
		}
		pCache += sd.params.AccessNJ // array write on promote
		if p := s.prof; p != nil {
			p.energy(profile.EPrefetch, sd.params.AccessNJ)
			p.unwipe(s, sd, e.block)
		}
		if sd.cache.FillPrefetched(e.block) {
			_, wnj := s.nvm.WriteWriteback()
			pMemory += wnj
			if s.prof != nil {
				s.prof.energy(profile.EPrefetch, wnj)
			}
		}
	}
	sd.minReady = min
	return pCache, pMemory
}

// access completes one demand access after run's cache probe, whose
// outcome is hit: the miss path, profiler attribution, and prefetcher
// observation and issue. It returns the stall cycles the access caused
// beyond the base pipeline cycle, along with the instruction's pending
// cache and memory energy (passed in and returned by value so run keeps
// them in locals).
func (s *System) access(sd *side, pc, addr uint64, write, hit bool, pCache, pMemory float64) (stall uint64, _, _ float64) {
	block := sd.cache.BlockAddr(addr)
	if s.prof != nil {
		s.prof.beginAccess(s, sd)
	}

	bufHit := false
	switch {
	case hit:
		// Nothing to do; a first hit on a prefetched line was counted as
		// useful by the cache itself.
	case s.cfg.PrefetchToCache:
		if idx := sd.findInflight(block); idx >= 0 && s.cfg.DupSuppress {
			// §5.1: an in-flight prefetch holds the block; wait for it
			// rather than issuing a duplicate NVM request.
			bufHit = true
			e := sd.inflight[idx]
			if e.readyAt > s.now {
				stall += e.readyAt - s.now
			}
			sd.removeInflight(idx)
			sd.stats.InflightServed++
			sd.cache.NoteBufHit()
			stall++ // promotion into the cache
			pCache += sd.params.AccessNJ
			if p := s.prof; p != nil {
				p.accessNJ(sd.params.AccessNJ)
				p.unwipe(s, sd, block)
			}
		} else {
			// A duplicate in-flight copy (DupSuppress off) drains later
			// and is classified redundant by drainPrefetches.
			rc, rnj := s.nvm.ReadDemand()
			stall += rc
			pMemory += rnj
			pCache += sd.params.AccessNJ
			if s.prof != nil {
				s.prof.noteDemandRead(s, sd, block, rnj+sd.params.AccessNJ)
			}
		}
	default:
		if e := sd.buf.Lookup(block); e != nil && s.cfg.DupSuppress {
			// Buffer mode §5.1: the prefetch buffer holds the block (or
			// its in-flight read); wait and promote.
			bufHit = true
			if e.ReadyAt > s.now {
				stall += e.ReadyAt - s.now
			}
			sd.buf.Take(block)
			if s.tr != nil {
				s.tr.Emit(trace.Event{Kind: trace.KindPrefetchFirstUse,
					Side: sd.name, Block: block, Detail: "buffer"})
			}
			sd.cache.NoteBufHit()
			stall++ // promotion into the cache
			pCache += sd.params.AccessNJ
			if p := s.prof; p != nil {
				p.accessNJ(sd.params.AccessNJ)
				p.unwipe(s, sd, block)
			}
		} else {
			if sd.buf.Lookup(block) != nil {
				// Ablation path (DupSuppress off): the duplicate demand
				// read is issued anyway; the buffered copy ends its life
				// unused.
				sd.buf.Drop(block)
			}
			rc, rnj := s.nvm.ReadDemand()
			stall += rc
			pMemory += rnj
			pCache += sd.params.AccessNJ
			if s.prof != nil {
				s.prof.noteDemandRead(s, sd, block, rnj+sd.params.AccessNJ)
			}
		}
	}
	// Every miss path ends in the demand fill. Its posted writeback costs
	// energy and traffic, no stall, and follows the access's attribution
	// category.
	if !hit && sd.cache.Fill(addr, write) {
		_, wnj := s.nvm.WriteWriteback()
		pMemory += wnj
		if s.prof != nil {
			s.prof.accessNJ(wnj)
		}
	}
	if s.prof != nil {
		s.prof.endAccess(stall)
	}

	// Prefetcher observation and issue. Prefetch reads go on the bus
	// after the demand traffic of this access, so their completion time
	// includes the stall accrued so far — late prefetches (§5.1) arise
	// naturally from this serialization.
	if sd.pf != nil {
		if hit && sd.quietHits {
			// The prefetcher neither trains nor emits on a plain hit and
			// costs nothing to consult: skip the call (bufHit implies a
			// miss, so this branch never hides a buffer-hit trigger).
			return stall, pCache, pMemory
		}
		if sd.agNJ != 0 {
			// §5.2: with IPEX holding the degree at zero, the prefetcher's
			// table-lookup address generation is powered down entirely.
			if s.cfg.GateAddressGen && sd.agNJ > 0 && sd.ctl.Enabled() && sd.ctl.Degree() == 0 {
				sd.stats.AddressGenGated++
				return stall, pCache, pMemory
			}
			pCache += sd.agNJ
			if s.prof != nil {
				s.prof.energy(profile.EPrefetch, sd.agNJ)
			}
		}
		sd.cands = sd.pf.OnAccess(sd.cands[:0], prefetch.Event{
			PC:        pc,
			Addr:      addr,
			Block:     block,
			Miss:      !hit,
			BufHit:    bufHit,
			BlockSize: uint64(sd.params.BlockSize),
		})
		if len(sd.cands) != 0 {
			pMemory = s.issuePrefetches(sd, stall, pMemory)
		}
	}
	return stall, pCache, pMemory
}

// issuePrefetches filters a side's candidate list and issues up to the
// active degree, recording throttling against the conventional degree. The
// reads start busyCycles from now; their energy joins pMemory, which is
// returned.
func (s *System) issuePrefetches(sd *side, busyCycles uint64, pMemory float64) float64 {
	// Filter candidates already covered or out of memory bounds, in place.
	memSize := uint64(s.cfg.NVM.SizeBytes)
	kept := sd.cands[:0]
candidates:
	for _, c := range sd.cands {
		b := sd.cache.BlockAddr(c)
		if b >= memSize {
			continue
		}
		if sd.cache.Contains(b) {
			continue
		}
		if s.cfg.PrefetchToCache {
			if sd.findInflight(b) >= 0 {
				continue
			}
		} else if sd.buf.Lookup(b) != nil {
			continue
		}
		for _, k := range kept {
			if k == b {
				continue candidates
			}
		}
		kept = append(kept, b)
	}
	if len(kept) == 0 {
		return pMemory
	}
	requested := len(kept)
	if requested > s.cfg.InitialDegree {
		requested = s.cfg.InitialDegree
	}
	// IPEX grants up to the current degree; the staging capacity then
	// bounds how many reads can actually be outstanding (that drop is a
	// structural limit, not IPEX throttling, and is not Recorded).
	granted := len(kept)
	if granted > sd.ctl.Degree() {
		granted = sd.ctl.Degree()
	}
	issue := granted
	if s.cfg.PrefetchToCache {
		if free := s.cfg.PrefetchBufEntries - len(sd.inflight); issue > free {
			issue = free
		}
	}
	for i := 0; i < issue; i++ {
		rc, rnj := s.nvm.ReadPrefetch()
		pMemory += rnj
		if s.prof != nil {
			s.prof.energy(profile.EPrefetch, rnj)
		}
		rdy := s.now + busyCycles + rc
		if s.cfg.PrefetchToCache {
			sd.inflight = append(sd.inflight, pfReq{block: kept[i], readyAt: rdy})
			if rdy < sd.minReady {
				sd.minReady = rdy
			}
		} else {
			sd.buf.Insert(kept[i], rdy)
		}
	}
	sd.ctl.Record(requested, granted)
	sd.stats.PrefetchIssued += uint64(issue)
	if s.tr != nil {
		for i := 0; i < issue; i++ {
			s.tr.Emit(trace.Event{Kind: trace.KindPrefetchIssue,
				Side: sd.name, Block: kept[i]})
		}
	}
	if requested > granted {
		sd.stats.PrefetchThrottled += uint64(requested - granted)
		if s.tr != nil {
			for _, b := range kept[granted:requested] {
				s.tr.Emit(trace.Event{Kind: trace.KindPrefetchThrottle,
					Side: sd.name, Block: b})
			}
		}
		if s.cfg.ReissueOnExit {
		enqueue:
			for _, b := range kept[granted:requested] {
				// A block throttled twice in one power cycle (the stream
				// head barely moves while the degree is held down) must not
				// occupy two of the 16 FIFO slots: the duplicate reissue
				// would be filtered later anyway, but it evicts an older
				// block that would have been replayed.
				for _, q := range sd.throttledQ {
					if q == b {
						continue enqueue
					}
				}
				if len(sd.throttledQ) == throttledQCap {
					sd.throttledQ = sd.throttledQ[:copy(sd.throttledQ, sd.throttledQ[1:])]
				}
				sd.throttledQ = append(sd.throttledQ, b)
			}
		}
	}
	return pMemory
}

// reissueThrottled re-issues previously throttled prefetches after IPEX
// returns to high-performance mode — the §5.1 extension the paper leaves as
// future work (Config.ReissueOnExit). The reads' energy joins pMemory,
// which is returned.
func (s *System) reissueThrottled(sd *side, pMemory float64) float64 {
	memSize := uint64(s.cfg.NVM.SizeBytes)
	// The queue is consumed in place, so its backing array is reused.
	n := 0
	for ; n < len(sd.throttledQ); n++ {
		b := sd.throttledQ[n]
		if b >= memSize || sd.cache.Contains(b) {
			continue
		}
		if s.cfg.PrefetchToCache {
			if sd.findInflight(b) >= 0 {
				continue
			}
			if len(sd.inflight) >= s.cfg.PrefetchBufEntries {
				break // no staging slot: keep it queued and stop for now
			}
		} else if sd.buf.Lookup(b) != nil {
			continue
		}
		rc, rnj := s.nvm.ReadPrefetch()
		pMemory += rnj
		if s.prof != nil {
			s.prof.energy(profile.EPrefetch, rnj)
		}
		rdy := s.now + rc
		if s.cfg.PrefetchToCache {
			sd.inflight = append(sd.inflight, pfReq{block: b, readyAt: rdy})
			if rdy < sd.minReady {
				sd.minReady = rdy
			}
		} else {
			sd.buf.Insert(b, rdy)
		}
		sd.stats.PrefetchIssued++
		sd.stats.PrefetchReissued++
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KindPrefetchIssue,
				Side: sd.name, Block: b, Detail: "reissue"})
		}
	}
	sd.throttledQ = sd.throttledQ[:copy(sd.throttledQ, sd.throttledQ[n:])]
	return pMemory
}

// harvest integrates the power trace over [now, now+cycles) into the
// capacitor charge e and returns the new charge, honouring the 10 µs sample
// boundaries. The trace is constant within a sample window, so the power
// value is cached until simulated time crosses sampleEnd — time only moves
// forward, so a single monotonic check replaces the div+mod trace lookup on
// every call.
func (s *System) harvest(e float64, cycles uint64) float64 {
	t := s.now
	remaining := cycles
	for remaining > 0 {
		if t >= s.sampleEnd {
			s.samplePow = s.powerAt(t)
			s.sampleEnd = (t/power.SampleIntervalCycles + 1) * power.SampleIntervalCycles
		}
		chunk := s.sampleEnd - t
		if chunk > remaining {
			chunk = remaining
		}
		e = s.bank(e, power.EnergyNJ(s.samplePow, chunk))
		t += chunk
		remaining -= chunk
	}
	return e
}

// outage performs the JIT checkpoint, powers the system off, recharges,
// restores, and reboots.
func (s *System) outage() {
	s.outages++

	// 1. JIT checkpoint: dirty DCache blocks + all volatile registers.
	// The address list is only needed for the non-ideal backup/restore
	// walk; it goes into a reused scratch buffer so an outage allocates
	// nothing. Ideal mode needs just the count, and only for telemetry.
	dirty := 0
	var bkNJ float64
	if s.cfg.Ideal {
		if s.cfg.RecordCycles || s.tr != nil {
			dirty = s.data.cache.DirtyCount()
		}
	} else {
		s.dirtyScratch = s.data.cache.DirtyAddrsAppend(s.dirtyScratch[:0])
		dirty = len(s.dirtyScratch)

		var bkCycles uint64
		if s.flt != nil && s.flt.ckpt != nil {
			bkCycles, bkNJ = s.checkpointWalk()
		} else {
			for range s.dirtyScratch {
				wc, wnj := s.nvm.Write(mem.CheckpointWrite)
				bkCycles += wc
				bkNJ += wnj
			}
		}
		bkCycles += 16 // register file into NVFFs
		bkNJ += energy.RegisterBackupNJ
		if bkNJ > s.cap.GuardEnergyNJ() {
			// The guard band cannot fund this checkpoint: a real system
			// would brown out mid-backup. Count the misprovisioning; the
			// backup itself still completes (see Result.GuardViolations).
			s.guardViolations++
		}
		s.pend.BkRst += bkNJ
		if p := s.prof; p != nil {
			p.energy(profile.ECheckpoint, bkNJ)
			p.cyc.Cycles[profile.CycCheckpoint] += bkCycles
		}
		s.cap.RestoreEnergyNJ(s.harvest(s.cap.EnergyNJ(), bkCycles))
		s.capConsume(s.pend.Total())
		s.consumed.Add(s.pend)
		s.pend = energy.Breakdown{}
		s.now += bkCycles
		s.onCycles += bkCycles
	}
	s.inst.ctl.Backup()
	s.data.ctl.Backup()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KindCheckpoint,
			N: int64(dirty), Value: bkNJ})
	}

	// 2. Power failure wipes all volatile state, including in-flight
	// prefetch reads (their energy is already spent — pure waste).
	if s.prof != nil {
		s.prof.captureWipe(s)
	}
	s.inst.cache.Wipe()
	s.data.cache.Wipe()
	s.inst.buf.Wipe()
	s.data.buf.Wipe()
	for _, sd := range [2]*side{&s.inst, &s.data} {
		if s.tr != nil {
			for _, r := range sd.inflight {
				s.tr.Emit(trace.Event{Kind: trace.KindPrefetchWipe,
					Side: sd.name, Block: r.block, Detail: "inflight"})
			}
		}
		sd.stats.InflightWiped += uint64(len(sd.inflight))
		sd.inflight = sd.inflight[:0]
		sd.minReady = noReady
		sd.throttledQ = sd.throttledQ[:0]
	}
	if s.inst.pf != nil {
		s.inst.pf.Reset()
	}
	if s.data.pf != nil {
		s.data.pf.Reset()
	}
	s.emitCycleStats()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KindCycleEnd,
			N: int64(s.insts - s.mark.insts)})
	}

	// 3. Dead until the capacitor recharges to Von. No consumption while
	// off; time passes in trace-sample steps.
	off0 := s.offCycles
	for !s.cap.AtOrAboveOn() && s.now < s.maxCycles {
		chunk := power.SampleIntervalCycles - s.now%power.SampleIntervalCycles
		s.capHarvest(power.EnergyNJ(s.powerAt(s.now), chunk))
		s.now += chunk
		s.offCycles += chunk
	}
	if s.prof != nil {
		s.prof.cyc.Cycles[profile.CycOff] += s.offCycles - off0
	}
	// Everything from the restore walk on belongs to the next power cycle.
	s.pcIdx++

	// 4. Reboot: restore registers and the checkpointed dirty blocks.
	if !s.cfg.Ideal {
		var rsCycles uint64
		var rsNJ float64
		for _, addr := range s.dirtyScratch {
			rc, rnj := s.nvm.Read(mem.RestoreRead)
			rsCycles += rc
			rsNJ += rnj
			// Restored blocks re-enter the cache clean (NVM now holds
			// their latest value).
			s.data.cache.Fill(addr, false)
			if s.prof != nil {
				s.prof.unwipe(s, &s.data, addr)
			}
		}
		rsCycles += 12
		rsNJ += energy.RegisterRestoreNJ
		s.pend.BkRst += rsNJ
		if p := s.prof; p != nil {
			p.energy(profile.ERestore, rsNJ)
			p.cyc.Cycles[profile.CycRestore] += rsCycles
		}
		s.cap.RestoreEnergyNJ(s.harvest(s.cap.EnergyNJ(), rsCycles))
		s.capConsume(s.pend.Total())
		s.consumed.Add(s.pend)
		s.pend = energy.Breakdown{}
		s.now += rsCycles
		s.onCycles += rsCycles
	}
	s.inst.ctl.OnReboot()
	s.data.ctl.OnReboot()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KindCycleStart})
	}
	if s.par != nil {
		// s.mark still describes the finished cycle: snapshotCycle below is
		// what rolls it forward.
		s.par.endCycle(s, s.insts-s.mark.insts)
	}
	if s.prof != nil {
		// Closed at the same boundary the paranoid ledger closes (restore
		// already charged), so record and shadow intervals coincide.
		s.prof.flushRecord(s)
	}

	s.flushCycle(dirty)
	s.snapshotCycle()
}

// result finalizes statistics into a Result.
func (s *System) result(completed bool) Result {
	s.inst.buf.Drain()
	s.data.buf.Drain()
	s.inst.cache.DrainPrefetchStats()
	s.data.cache.DrainPrefetchStats()

	collect := func(sd *side) SideStats {
		st := sd.stats
		st.ToCache = s.cfg.PrefetchToCache
		// Still-in-flight reads at end of run never served anyone.
		st.Cache = sd.cache.Stats()
		st.Buffer = sd.buf.Stats()
		st.IPEX = sd.ctl.Stats()
		return st
	}
	s.flushCycle(s.data.cache.DirtyBlocks())
	if m := s.cfg.Metrics; m != nil {
		m.Counter("run.insts").Add(s.insts)
		m.Counter("run.cycles").Add(s.now)
		m.Counter("run.on_cycles").Add(s.onCycles)
		m.Counter("run.off_cycles").Add(s.offCycles)
		m.Counter("run.outages").Add(s.outages)
		m.Counter("run.guard_violations").Add(s.guardViolations)
		for _, sd := range [2]*side{&s.inst, &s.data} {
			p := sd.name + "."
			cs, bs := sd.cache.Stats(), sd.buf.Stats()
			m.Counter(p + "accesses").Add(cs.Accesses)
			m.Counter(p + "misses").Add(cs.Misses)
			m.Counter(p + "pf_issued").Add(sd.stats.PrefetchIssued)
			m.Counter(p + "pf_throttled").Add(sd.stats.PrefetchThrottled)
			m.Counter(p + "pf_reissued").Add(sd.stats.PrefetchReissued)
			m.Counter(p + "pf_useful").Add(cs.PrefetchedUseful + bs.UsefulEvicted)
			m.Counter(p + "pf_wiped_cache").Add(cs.PrefetchedWiped)
			m.Counter(p + "pf_wiped_buffer").Add(bs.WipedUnused)
			m.Counter(p + "pf_wiped_inflight").Add(sd.stats.InflightWiped)
		}
		m.Gauge("energy.total_nj").Add(s.consumed.Total())
		m.Gauge("energy.cache_nj").Add(s.consumed.Cache)
		m.Gauge("energy.memory_nj").Add(s.consumed.Memory)
		m.Gauge("energy.compute_nj").Add(s.consumed.Compute)
		m.Gauge("energy.bkrst_nj").Add(s.consumed.BkRst)
	}
	r := Result{
		App:             s.wl.Name(),
		Trace:           s.trace.Name,
		Completed:       completed,
		Insts:           s.insts,
		Cycles:          s.now,
		OnCycles:        s.onCycles,
		OffCycles:       s.offCycles,
		Outages:         s.outages,
		Energy:          s.consumed,
		Inst:            collect(&s.inst),
		Data:            collect(&s.data),
		NVM:             s.nvm.Stats(),
		GuardViolations: s.guardViolations,
		PowerCycleLog:   s.cycleLog,
	}
	if s.flt != nil {
		fs := s.flt.stats
		r.Faults = &fs
	}
	if s.prof != nil {
		// After the stat drains above, so the outcome split matches the
		// Result's counters; before finalChecks, which cross-checks it.
		r.Profile = s.prof.finish(s)
	}
	if s.par != nil {
		s.par.finalChecks(s, &r)
		if len(s.reports) == 0 {
			s.reports = make([]fault.Report, 16)
		}
		s.reports[0] = s.par.rep
		r.Invariants = &s.reports[0]
		s.reports = s.reports[1:]
	}
	return r
}
