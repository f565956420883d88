package remote

import (
	"encoding/json"
	"slices"

	"ipex/internal/nvp"
	"ipex/internal/power"
)

// EncodeCell derives the declarative /v1/run body for one sweep cell, or
// nil when the cell is not expressible remotely. The contract is absolute:
// a non-nil return is a request the server is guaranteed to file under
// wantKey, proven by round-tripping the candidate through Build — the
// server's own builder — and comparing the reconstructed cell identity
// against the sweep's. Anything the wire schema cannot express
// (caller-installed prefetcher factories, instruction-only IPEX, a
// non-default capacitor beyond its capacitance, a custom or short trace)
// fails that comparison and runs locally; there is no list of special
// cases to keep in sync with the schema, because the schema itself is the
// check.
//
// tr must be the cell's power trace, wantKey the key runAll computed for
// the cell (see experiments.CellIdentity). cfg must be the effective
// config — budget clamp and paranoid flag applied, observers excluded —
// exactly what the cell identity was hashed from.
func EncodeCell(app string, scale float64, tr *power.Trace, traceSeed uint64, cfg nvp.Config, wantKey string) []byte {
	if wantKey == "" || tr == nil {
		return nil
	}
	// The server generates its trace from (source, seed) at the default
	// length; a sweep running a custom or foreign-length trace cannot be
	// served by the fleet.
	if len(tr.Samples) != power.DefaultTraceSamples {
		return nil
	}
	if _, err := power.ParseSource(tr.Name); err != nil {
		return nil
	}

	ipexMode := ""
	switch {
	case cfg.IPEXInst && cfg.IPEXData:
		ipexMode = "both"
	case !cfg.IPEXInst && cfg.IPEXData:
		ipexMode = "data"
	case !cfg.IPEXInst && !cfg.IPEXData:
		ipexMode = "off"
	default:
		return nil // instruction-only IPEX has no wire spelling
	}

	ptc, dup := cfg.PrefetchToCache, cfg.DupSuppress
	rq := RunRequest{
		App:       app,
		Scale:     scale,
		Source:    tr.Name,
		TraceSeed: traceSeed,
		Config: &ConfigRequest{
			IPrefetcher:        string(cfg.IPrefetcher),
			DPrefetcher:        string(cfg.DPrefetcher),
			Degree:             cfg.InitialDegree,
			IPEX:               ipexMode,
			PrefetchToCache:    &ptc,
			DupSuppress:        &dup,
			Ideal:              cfg.Ideal,
			ReissueOnExit:      cfg.ReissueOnExit,
			GateAddressGen:     cfg.GateAddressGen,
			RecordCycles:       cfg.RecordCycles,
			Paranoid:           cfg.Paranoid,
			Profile:            cfg.Profile,
			MaxCycles:          cfg.MaxCycles,
			ICacheSize:         cfg.ICacheSize,
			DCacheSize:         cfg.DCacheSize,
			Ways:               cfg.Ways,
			PrefetchBufEntries: cfg.PrefetchBufEntries,
			NVM:                cfg.NVM.Tech.String(),
			NVMBytes:           cfg.NVM.SizeBytes,
			CapacitanceFarads:  cfg.Capacitor.CapacitanceFarads,
			LinearAdjust:       cfg.IPEX.LinearAdjust,
		},
	}
	// The IPEX tunables and faults go on the wire only when they differ
	// from the defaults, so a cell the older schema could spell keeps its
	// exact request bytes.
	cr, def := rq.Config, nvp.DefaultConfig().IPEX
	if !slices.Equal(cfg.IPEX.Thresholds, def.Thresholds) {
		cr.Thresholds = cfg.IPEX.Thresholds
	}
	if cfg.IPEX.StepV != def.StepV {
		cr.StepV = cfg.IPEX.StepV
	}
	if r := cfg.IPEX.ThrottleRateTrigger; r != def.ThrottleRateTrigger {
		cr.ThrottleRateTrigger = &r
	}
	if a := cfg.IPEX.Adaptive; a != def.Adaptive {
		cr.Adaptive = &a
	}
	if cfg.Faults != nil {
		cr.Faults = newFaultRequest(*cfg.Faults)
	}

	// Round-trip through the server's own builder: remotable iff the server
	// would reconstruct the exact cell identity. Limits{} is the unbounded
	// default — a fleet server running stricter -max-scale/-cell-budget
	// rejects or re-keys the request, which the client's envelope
	// verification catches as a per-attempt failure.
	sp, err := rq.Build(Limits{})
	if err != nil {
		return nil
	}
	if sp.Key(tr.Name, len(tr.Samples)) != wantKey {
		return nil
	}
	body, err := json.Marshal(rq)
	if err != nil {
		return nil
	}
	return body
}
