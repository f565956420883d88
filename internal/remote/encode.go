package remote

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"slices"

	"ipex/internal/experiments"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/workload"
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
// check. The round trip runs once per configuration (see builtFor); every
// cell still checks its app and compares its own key with wantKey.
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

	body, err := json.Marshal(rq)
	if err != nil {
		return nil
	}
	b := builtFor(rq, body)
	if !b.ok {
		return nil
	}
	if experiments.IdentityKey(app, b.scale, b.seed, tr.Name, len(tr.Samples), b.ident) != wantKey {
		return nil
	}
	return body
}

// built is what the server's builder makes of one request, less its app:
// the normalized scale and seed and the marshaled config identity, or ok
// false when Build refuses the request.
type built struct {
	ok    bool
	scale float64
	seed  uint64
	ident []byte
}

// encodeMemoEntries bounds encodeMemo. A sweep encodes its cells one
// configuration at a time, and the ~110 distinct configurations of a full
// -all sweep fit.
const encodeMemoEntries = 256

// encodeMemo holds built values by the request body after its app, which
// is everything besides the app that Build reads. It is package-level
// because EncodeCell's signature is experiments.RemoteEncoder's; what it
// holds changes how fast EncodeCell answers, never what.
var encodeMemo = NewBodyMemo[built](encodeMemoEntries)

// builtFor round-trips rq through the server's own builder, once per
// distinct request less its app: remotable iff the server would
// reconstruct the exact cell identity. body is json.Marshal(rq). Build
// reads the app only to check it, so the app is checked here and the rest
// of a cached Build answers every app of the configuration. Limits{} is the
// unbounded default — a fleet server running stricter -max-scale/-cell-budget
// rejects or re-keys the request, which the client's envelope verification
// catches as a per-attempt failure.
func builtFor(rq RunRequest, body []byte) built {
	if !workload.Known(rq.App) {
		return built{}
	}
	// A known app marshals unescaped; a body that does not start with it
	// would be memoized under the wrong bytes, so it is declined.
	rest, ok := bytes.CutPrefix(body, []byte(`{"app":"`+rq.App+`"`))
	if !ok {
		return built{}
	}
	sum := sha256.Sum256(rest)
	if b, hit := encodeMemo.Get(sum); hit {
		return b
	}
	var b built
	if sp, err := rq.Build(Limits{}); err == nil {
		b = built{ok: true, scale: sp.Scale, seed: sp.Seed, ident: experiments.MarshalIdentity(sp.Identity)}
	}
	encodeMemo.Put(sum, b)
	return b
}
