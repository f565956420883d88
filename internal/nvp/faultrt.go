package nvp

import (
	"ipex/internal/fault"
	"ipex/internal/mem"
	"ipex/internal/power"
	"ipex/internal/trace"
)

// faultRuntime bundles the per-run fault injectors (internal/fault) the
// system was configured with. A nil *faultRuntime means fault injection is
// off; every integration site in the simulator is guarded by that one nil
// compare, and a Config whose families are all inactive normalizes to nil —
// so a disabled fault layer is bit-identical to no fault layer at all.
type faultRuntime struct {
	stats  fault.Stats
	sensor *fault.Sensor       // nil unless the sensor family is active
	ckpt   *fault.Checkpointer // nil unless the checkpoint family is active
	harv   *fault.Harvester    // nil unless the harvest family is active
}

// newFaultRuntime builds the injectors for one run, or returns nil when the
// config injects nothing.
func newFaultRuntime(cfg *fault.Config, vmax float64, tr *trace.Tracer) *faultRuntime {
	if !cfg.Active() {
		return nil
	}
	rt := &faultRuntime{}
	seed := cfg.Seed
	if seed == 0 {
		seed = fault.DefaultSeed
	}
	if cfg.Sensor.Active() {
		rt.sensor = fault.NewSensor(cfg.Sensor, seed, vmax, tr, &rt.stats)
	}
	if cfg.Checkpoint.Active() {
		rt.ckpt = fault.NewCheckpointer(cfg.Checkpoint, seed, tr, &rt.stats)
	}
	if cfg.Harvest.Active() {
		rt.harv = fault.NewHarvester(cfg.Harvest, seed, tr, &rt.stats)
	}
	return rt
}

// powerAt maps a cycle to the harvested power the capacitor receives,
// applying harvest anomalies when configured. It replaces the simulator's
// direct trace.PowerAt reads.
func (s *System) powerAt(t uint64) float64 {
	p := s.trace.PowerAt(t)
	if s.flt != nil && s.flt.harv != nil {
		p = s.flt.harv.Power(t/power.SampleIntervalCycles, p)
	}
	return p
}

// checkpointWalk is the outage backup walk under checkpoint-write faults:
// every attempt (torn or not) costs full NVM write energy and cycles; a
// torn write is detected and retried up to the retry bound; a block that
// keeps tearing forces a rollback — the walk restarts so the committed
// snapshot is consistent — up to the rollback bound, past which writes are
// forced through so the run always terminates. Wasted cost (torn attempts
// plus rollback-discarded commits) is accumulated into the fault stats.
func (s *System) checkpointWalk() (cycles uint64, nj float64) {
	ck := s.flt.ckpt
	st := &s.flt.stats
	n := len(s.dirtyScratch)
	var passC uint64 // cost of this pass's committed (not yet safe) writes
	var passNJ float64
	rollbacks := 0
	forced := false
	retries := 0
	for i := 0; i < n; {
		wc, wnj := s.nvm.Write(mem.CheckpointWrite)
		cycles += wc
		nj += wnj
		if retries > 0 {
			ck.NoteRetry(wnj)
		}
		if ck.WriteFails(forced) {
			st.RetryCycles += wc
			st.RetryNJ += wnj
			retries++
			if retries > ck.MaxRetries() {
				ck.NoteRollback(i)
				st.RetryCycles += passC
				st.RetryNJ += passNJ
				passC, passNJ = 0, 0
				i, retries = 0, 0
				rollbacks++
				if rollbacks >= ck.MaxRollbacks() {
					forced = true
				}
			}
			continue
		}
		passC += wc
		passNJ += wnj
		retries = 0
		i++
	}
	return cycles, nj
}
