package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/fault"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/prefetch"
)

// ConfigIdentity is the content identity of an nvp.Config: every field that
// can change a simulation result, and nothing else. It exists because
// nvp.Config itself cannot be hashed — the prefetcher factory fields are
// funcs — and because observer attachments (Tracer, Metrics) must not
// change a cell's identity: a re-run with tracing on replays the same
// journaled result, and a cached result serves a request whether or not it
// was produced under observation.
//
// Factory-built prefetchers are identified by their declared name
// (nvp.Config.IPrefetcherID/DPrefetcherID), never by mere presence: two
// different factories under a presence bit would collide to one key and
// replay each other's results. A factory installed without an ID has no
// identity at all — NewConfigIdentity refuses it, and the journal and
// result cache treat such cells as unkeyable (they always simulate).
type ConfigIdentity struct {
	ICacheSize         int
	DCacheSize         int
	Ways               int
	PrefetchBufEntries int
	PrefetchToCache    bool
	IPrefetcher        prefetch.Kind
	DPrefetcher        prefetch.Kind
	// IFactory/DFactory carry the declared factory IDs ("" = no factory).
	IFactory           string
	DFactory           string
	InitialDegree      int
	IPEXInst           bool
	IPEXData           bool
	IPEX               core.Config
	NVM                energy.NVMParams
	Capacitor          capacitor.Config
	Ideal              bool
	DupSuppress        bool
	ReissueOnExit      bool
	GateAddressGen     bool
	RecordCycles       bool
	MaxCycles          uint64
	Faults             *fault.Config
	Paranoid           bool
	Profile            bool
}

// ErrUnnamedFactory reports a config whose prefetcher factory carries no
// IPrefetcherID/DPrefetcherID: such a config has no stable content identity
// and must never be journaled or served from a result cache.
var ErrUnnamedFactory = errors.New("prefetcher factory installed without a PrefetcherID; the config has no stable content identity")

// NewConfigIdentity derives the content identity of cfg. It fails with
// ErrUnnamedFactory when a prefetcher factory is installed without its
// identifying nvp.Config.IPrefetcherID/DPrefetcherID.
func NewConfigIdentity(cfg nvp.Config) (ConfigIdentity, error) {
	if cfg.IPrefetcherFactory != nil && cfg.IPrefetcherID == "" {
		return ConfigIdentity{}, fmt.Errorf("experiments: instruction %w", ErrUnnamedFactory)
	}
	if cfg.DPrefetcherFactory != nil && cfg.DPrefetcherID == "" {
		return ConfigIdentity{}, fmt.Errorf("experiments: data %w", ErrUnnamedFactory)
	}
	return ConfigIdentity{
		ICacheSize:         cfg.ICacheSize,
		DCacheSize:         cfg.DCacheSize,
		Ways:               cfg.Ways,
		PrefetchBufEntries: cfg.PrefetchBufEntries,
		PrefetchToCache:    cfg.PrefetchToCache,
		IPrefetcher:        cfg.IPrefetcher,
		DPrefetcher:        cfg.DPrefetcher,
		IFactory:           cfg.IPrefetcherID,
		DFactory:           cfg.DPrefetcherID,
		InitialDegree:      cfg.InitialDegree,
		IPEXInst:           cfg.IPEXInst,
		IPEXData:           cfg.IPEXData,
		IPEX:               cfg.IPEX,
		NVM:                cfg.NVM,
		Capacitor:          cfg.Capacitor,
		Ideal:              cfg.Ideal,
		DupSuppress:        cfg.DupSuppress,
		ReissueOnExit:      cfg.ReissueOnExit,
		GateAddressGen:     cfg.GateAddressGen,
		RecordCycles:       cfg.RecordCycles,
		MaxCycles:          cfg.MaxCycles,
		Faults:             cfg.Faults,
		Paranoid:           cfg.Paranoid,
		Profile:            cfg.Profile,
	}, nil
}

// CellIdentity is the complete content identity of one simulation: what is
// simulated (app at a scale), under which power trace, with which effective
// configuration. Two cells with equal identities produce bit-identical
// results, so a journaled or cached result can stand in for a simulation.
// It is the shared key schema of the sweep journal (cmd/experiments) and
// the result cache (cmd/ipexd).
type CellIdentity struct {
	App       string
	Scale     float64
	TraceSeed uint64
	TraceName string
	TraceLen  int
	Config    ConfigIdentity
}

// Key hashes the identity into the 32-hex-digit content key used by the
// journal and the result store: harness.Key of the identity.
func (id CellIdentity) Key() string {
	return IdentityKey(id.App, id.Scale, id.TraceSeed, id.TraceName, id.TraceLen, MarshalIdentity(id.Config))
}

// cellHeader is CellIdentity without its Config: the same fields in the
// same order, so the JSON of a CellIdentity is the JSON of its header with
// the Config field spliced in before the closing brace.
type cellHeader struct {
	App       string
	Scale     float64
	TraceSeed uint64
	TraceName string
	TraceLen  int
}

// MarshalIdentity is the JSON of a config identity, as IdentityKey takes
// it. Like harness.Key, it panics on a value that cannot be marshaled.
func MarshalIdentity(ci ConfigIdentity) []byte {
	b, err := json.Marshal(ci)
	if err != nil {
		panic(fmt.Sprintf("experiments: unhashable config identity: %v", err))
	}
	return b
}

// IdentityKey is the key of the CellIdentity made of these fields and a
// Config whose MarshalIdentity is config. Every cell key is derived here,
// so a caller that keys many cells of one configuration marshals the
// configuration once and pays per cell only for the small header and the
// hash.
func IdentityKey(app string, scale float64, traceSeed uint64, traceName string, traceLen int, config []byte) string {
	head, err := json.Marshal(cellHeader{App: app, Scale: scale, TraceSeed: traceSeed, TraceName: traceName, TraceLen: traceLen})
	if err != nil {
		panic(fmt.Sprintf("experiments: unhashable cell identity: %v", err))
	}
	const field = `,"Config":`
	b := make([]byte, 0, len(head)-1+len(field)+len(config)+1)
	b = append(b, head[:len(head)-1]...)
	b = append(b, field...)
	b = append(b, config...)
	b = append(b, '}')
	return harness.KeyJSON(b)
}

// identityJSON is the MarshalIdentity of cfg's content identity, or nil
// when cfg has none (an unnamed prefetcher factory, see NewConfigIdentity).
func identityJSON(cfg nvp.Config) []byte {
	ci, err := NewConfigIdentity(cfg)
	if err != nil {
		return nil
	}
	return MarshalIdentity(ci)
}

// cellKey hashes the content identity of one job under the normalized
// options from the job's marshaled config identity. A job whose config has
// no stable identity (ident nil) returns "", which the harness treats as
// unkeyable: the cell always simulates and is never journaled or replayed.
func cellKey(o Options, j job) string {
	if j.ident == nil {
		return ""
	}
	name, n := "", 0
	if j.tr != nil {
		name, n = j.tr.Name, len(j.tr.Samples)
	}
	return IdentityKey(j.app, o.Scale, o.TraceSeed, name, n, j.ident)
}

// SweepIdentity describes a whole sweep invocation for the journal header:
// the experiment set and every option that changes any cell's identity.
// cmd/experiments hashes it with harness.Key; a -resume against a journal
// whose sweep hash differs is rejected before any cell runs.
type SweepIdentity struct {
	Experiments []string
	Scale       float64
	Apps        []string
	TraceSeed   uint64
	Paranoid    bool
	// CellBudget is the per-cell deterministic cycle deadline (0 = none);
	// it clamps MaxCycles and therefore changes truncation behaviour.
	CellBudget uint64
}
