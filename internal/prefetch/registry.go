package prefetch

import "fmt"

// Kind names a prefetcher implementation for configuration purposes.
type Kind string

// The recognized prefetcher kinds. KindNone disables prefetching for a
// cache.
const (
	KindNone       Kind = "none"
	KindSequential Kind = "sequential"
	KindStride     Kind = "stride"
	KindMarkov     Kind = "markov"
	KindTIFS       Kind = "tifs"
	KindGHB        Kind = "ghb"
	KindBO         Kind = "bo"
	// KindAMPM is beyond the paper's evaluated set (Tables 3/4) but is
	// discussed in its related work; it is available for experiments.
	KindAMPM Kind = "ampm"
)

// InstructionKinds lists the instruction prefetchers the paper evaluates
// (Table 3), default first.
var InstructionKinds = []Kind{KindSequential, KindMarkov, KindTIFS}

// DataKinds lists the data prefetchers the paper evaluates (Table 4),
// default first.
var DataKinds = []Kind{KindStride, KindGHB, KindBO}

// kinds is the one table of constructible prefetchers, with paper-scale
// embedded table sizes: New builds from it, Check only looks a name up.
var kinds = map[Kind]func() Prefetcher{
	KindSequential: func() Prefetcher { return NewSequential() },
	KindStride:     func() Prefetcher { return NewStride(512) },
	KindMarkov:     func() Prefetcher { return NewMarkov(256) },
	KindTIFS:       func() Prefetcher { return NewTIFS(1024) },
	KindGHB:        func() Prefetcher { return NewGHB(512) },
	KindBO:         func() Prefetcher { return NewBO(64) },
	KindAMPM:       func() Prefetcher { return NewAMPM(32) },
}

// Check reports whether New accepts kind, without building the prefetcher
// and its tables.
func Check(kind Kind) error {
	if _, ok := kinds[kind]; !ok && kind != KindNone && kind != "" {
		return fmt.Errorf("prefetch: unknown kind %q", kind)
	}
	return nil
}

// New instantiates a prefetcher of the given kind with paper-scale embedded
// table sizes. It returns (nil, nil) for KindNone.
func New(kind Kind) (Prefetcher, error) {
	if mk := kinds[kind]; mk != nil {
		return mk(), nil
	}
	return nil, Check(kind)
}
