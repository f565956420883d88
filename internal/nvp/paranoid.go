package nvp

import (
	"math"

	"ipex/internal/fault"
)

// paranoid is the runtime invariant checker (Config.Paranoid): it shadows
// the capacitor's energy ledger through bank and drain, closes the
// energy-conservation balance at every power-cycle boundary, watches for
// stalled forward progress, and replays the offline accounting invariants
// (internal/nvp/invariants_test.go) at end of run. It observes only — a
// violation lands in Result.Invariants, never changes behaviour.
type paranoid struct {
	rep fault.Report

	// Shadow ledger for the current power cycle: cycleStartE is the stored
	// energy when the cycle began; storedNJ/drainedNJ accumulate what bank
	// actually stored and drain actually removed (post clamp and floor),
	// so the balance below is an identity, not an approximation.
	cycleStartE float64
	storedNJ    float64
	drainedNJ   float64
	// totalDrainedNJ is the whole-run drain ledger (never reset): the same
	// chronological applied-drain sequence the attribution profiler sums,
	// so the two totals are comparable bit-for-bit, not within a tolerance.
	totalDrainedNJ float64

	// zeroStreak counts consecutive power cycles that committed zero
	// instructions — the signature of a system looping boot → checkpoint
	// without ever making progress.
	zeroStreak int
}

// zeroProgressLimit is how many consecutive zero-instruction power cycles
// the checker tolerates before flagging stalled forward progress. Weak
// traces legitimately produce short zero-progress bursts (a reboot into an
// immediate re-outage); a run of this many in a row means the configuration
// can never finish and only the MaxCycles budget will stop it.
const zeroProgressLimit = 50

// balanceTol returns the energy-balance tolerance for the magnitudes
// involved: pure float64 summation reassociation, so a relative epsilon on
// the flows plus an absolute floor.
func balanceTol(a, b, c, d float64) float64 {
	m := math.Abs(a) + math.Abs(b) + math.Abs(c) + math.Abs(d)
	return 1e-9*m + 1e-9
}

// bank adds nj of harvested energy to the capacitor charge e with
// Capacitor.Harvest's clamp at capacity and returns the new charge; the
// amount actually stored also enters the shadow ledger in paranoid mode.
func (s *System) bank(e, nj float64) float64 {
	if nj <= 0 {
		return e
	}
	if room := s.cap.CapacityNJ() - e; nj > room {
		nj = room
	}
	if s.par != nil {
		s.par.storedNJ += nj
	}
	return e + nj
}

// drain removes nj from the capacitor charge e with Capacitor.Consume's
// floor at zero and returns the new charge. The applied amount (the drain
// after the floor) feeds the shadow ledger and the profiler's drain
// ledger; both observers add the identical applied value at the identical
// point, which is what makes their ledgers bitwise comparable rather than
// merely close.
func (s *System) drain(e, nj float64) float64 {
	if nj <= 0 {
		return e
	}
	if s.ledgered {
		applied := nj
		if applied > e {
			applied = e
		}
		if s.par != nil {
			s.par.drainedNJ += applied
			s.par.totalDrainedNJ += applied
		}
		if s.prof != nil {
			s.prof.noteDrain(applied)
		}
	}
	e -= nj
	if e < 0 {
		e = 0
	}
	return e
}

// capHarvest and capConsume apply bank and drain to the capacitor itself,
// for outage(), which runs with the charge written back to it.
func (s *System) capHarvest(nj float64) { s.cap.RestoreEnergyNJ(s.bank(s.cap.EnergyNJ(), nj)) }
func (s *System) capConsume(nj float64) { s.cap.RestoreEnergyNJ(s.drain(s.cap.EnergyNJ(), nj)) }

// endCycle closes the shadow ledger at a power-cycle boundary (the end of
// outage(), with the next cycle's restore already charged) and runs the
// per-cycle checks. insts is the instruction count the finished cycle
// committed.
func (p *paranoid) endCycle(s *System, insts uint64) {
	p.rep.Checks++
	now := s.cap.EnergyNJ()
	want := p.cycleStartE + p.storedNJ - p.drainedNJ
	if diff := math.Abs(now - want); diff > balanceTol(p.cycleStartE, p.storedNJ, p.drainedNJ, now) {
		p.rep.Add("energy_balance", s.now, s.pcIdx,
			"stored energy %.6f nJ, ledger expects %.6f (start %.6f + harvested %.6f - drained %.6f); off by %.3g",
			now, want, p.cycleStartE, p.storedNJ, p.drainedNJ, diff)
	}
	if s.prof != nil {
		// The profiler's open record spans exactly this shadow-ledger
		// interval and both summed the identical drain sequence, so the
		// comparison is bitwise — any difference means a charge was
		// attributed outside the drain path.
		p.rep.Checks++
		if s.prof.cyc.LedgerNJ != p.drainedNJ {
			p.rep.Add("profile_cycle_ledger", s.now, s.pcIdx,
				"profiler cycle ledger %.9f nJ != shadow drain ledger %.9f nJ",
				s.prof.cyc.LedgerNJ, p.drainedNJ)
		}
	}
	p.cycleStartE = now
	p.storedNJ, p.drainedNJ = 0, 0

	p.rep.Checks++
	if insts == 0 {
		p.zeroStreak++
		if p.zeroStreak == zeroProgressLimit {
			p.rep.Add("forward_progress", s.now, s.pcIdx,
				"%d consecutive power cycles committed zero instructions; the run cannot finish",
				p.zeroStreak)
		}
	} else {
		p.zeroStreak = 0
	}
}

// finalChecks replays the offline accounting invariants on the finished
// run's counters. A violation's arguments are boxed only when its check
// fails, so a clean run allocates nothing here.
func (p *paranoid) finalChecks(s *System, r *Result) {
	fails := func(ok bool) bool {
		p.rep.Checks++
		return !ok
	}
	add := func(name, format string, args ...any) { p.rep.Add(name, s.now, s.pcIdx, format, args...) }

	if fails(r.Cycles == r.OnCycles+r.OffCycles) {
		add("cycle_split", "cycles %d != on %d + off %d", r.Cycles, r.OnCycles, r.OffCycles)
	}

	issued := r.Inst.PrefetchIssued + r.Data.PrefetchIssued
	if fails(r.NVM.PrefetchReads == issued) {
		add("prefetch_ledger", "NVM prefetch reads %d != issued %d", r.NVM.PrefetchReads, issued)
	}

	for _, sd := range [2]*SideStats{&r.Inst, &r.Data} {
		if fails(sd.Buffer.UsefulEvicted+sd.Buffer.UselessEvicted == sd.Buffer.Inserted) {
			add("buffer_classification", "useful %d + useless %d != inserted %d",
				sd.Buffer.UsefulEvicted, sd.Buffer.UselessEvicted, sd.Buffer.Inserted)
		}
		if fails(sd.Cache.Misses <= sd.Cache.Accesses) {
			add("cache_counts", "misses %d > accesses %d", sd.Cache.Misses, sd.Cache.Accesses)
		}
	}

	e := r.Energy
	if fails(e.Cache >= 0 && e.Memory >= 0 && e.Compute >= 0 && e.BkRst >= 0 && e.Total() > 0) {
		add("energy_sign", "negative bucket or zero total in %+v", e)
	}
	if s.cfg.Ideal && fails(e.BkRst == 0) {
		add("ideal_bkrst", "ideal run spent %.3f nJ on backup/restore", e.BkRst)
	}

	// Checkpoint traffic is bounded by what the data cache can hold per
	// outage — after subtracting injected torn attempts and rollback
	// re-writes, which legitimately inflate the write count.
	if !s.cfg.Ideal && r.Outages > 0 {
		maxDirty := r.Outages * uint64(s.cfg.DCacheSize/16)
		writes := r.NVM.CheckpointWrites
		if s.flt != nil {
			writes -= s.flt.stats.CheckpointWriteFailures + s.flt.stats.CheckpointDiscarded
		}
		if fails(writes <= maxDirty) {
			add("checkpoint_traffic", "net checkpoint writes %d exceed %d outages x dirty capacity (%d)",
				writes, r.Outages, maxDirty)
		}
	}

	if !(s.cfg.IPEXInst || s.cfg.IPEXData) && fails(r.Inst.PrefetchThrottled == 0 && r.Data.PrefetchThrottled == 0) {
		add("throttle_without_ipex", "throttled %d/%d prefetches with IPEX detached",
			r.Inst.PrefetchThrottled, r.Data.PrefetchThrottled)
	}

	if fails(!r.Completed || r.Insts == uint64(s.wl.Len())) {
		add("lost_instructions", "completed run committed %d of %d instructions", r.Insts, s.wl.Len())
	}

	// Attribution cross-checks (Config.Profile + Config.Paranoid): cycles
	// and the drain ledger must agree exactly; only the per-category energy
	// split is allowed float64 reassociation slack against the ledger.
	if pr := r.Profile; pr != nil {
		p.rep.LedgerNJ = p.totalDrainedNJ
		if fails(pr.TotalCycles == r.Cycles && pr.CycleTotal() == r.Cycles) {
			add("profile_cycle_total", "profiler cycles %d (categories sum %d) != run cycles %d",
				pr.TotalCycles, pr.CycleTotal(), r.Cycles)
		}
		if fails(pr.Insts == r.Insts) {
			add("profile_insts", "profiler insts %d != run insts %d", pr.Insts, r.Insts)
		}
		if fails(pr.LedgerNJ == p.totalDrainedNJ) {
			add("profile_ledger", "profiler drain ledger %.9f nJ != shadow ledger %.9f nJ",
				pr.LedgerNJ, p.totalDrainedNJ)
		}
		et := pr.EnergyTotalNJ()
		if fails(math.Abs(et-pr.LedgerNJ) <= balanceTol(et, pr.LedgerNJ, 0, 0)) {
			add("profile_energy_split", "energy categories sum %.9f nJ, drain ledger %.9f nJ", et, pr.LedgerNJ)
		}
	}
}
