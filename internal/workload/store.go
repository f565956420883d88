package workload

import "sync"

// Store memoizes fully generated access streams keyed by (app, scale).
//
// The synthetic generators are deterministic, so every simulation of the
// same (app, scale) pair consumes the identical sequence; regenerating it
// per configuration (as every experiment sweep used to) pays the full
// per-instruction generation cost — hash lookups, RNG draws, PC-walk
// bookkeeping — four to six times per app. The store generates each stream
// once per process and hands out lightweight replay cursors over a shared
// read-only slice, which is both cheaper per instruction than generation
// and free after the first request.
//
// Store is safe for concurrent use: the first Get for a key generates under
// a per-entry sync.Once while other keys proceed independently, and replay
// generators never mutate the shared slice.
type Store struct {
	mu      sync.Mutex
	entries map[storeKey]*storeEntry
}

type storeKey struct {
	name  string
	scale float64
}

type storeEntry struct {
	once   sync.Once
	stream *Stream
	err    error
}

// NewStore returns an empty trace store.
func NewStore() *Store {
	return &Store{entries: make(map[storeKey]*storeEntry)}
}

// shared is the process-wide store used by the public Run API and the
// experiment harness; all configurations of one sweep replay its streams.
var shared = NewStore()

// Shared returns the process-wide trace store.
func Shared() *Store { return shared }

// Stream returns the shared immutable trace arena of the named app at the
// given scale, generating (and caching) it on first use. Every caller of
// the same (app, scale) pair receives the identical *Stream — one arena per
// pair, shared across all sweep workers with no per-cell copying. After the
// first call for a key this allocates nothing.
func (s *Store) Stream(name string, scale float64) (*Stream, error) {
	if scale <= 0 {
		scale = 1 // mirror New's normalization so keys do not fragment
	}
	key := storeKey{name: name, scale: scale}
	s.mu.Lock()
	if s.entries == nil { // the zero Store is ready to use
		s.entries = make(map[storeKey]*storeEntry)
	}
	e, ok := s.entries[key]
	if !ok {
		e = &storeEntry{}
		s.entries[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		g, err := New(name, scale)
		if err != nil {
			e.err = err
			return
		}
		acc := make([]Access, 0, g.Len())
		for {
			a, ok := g.Next()
			if !ok {
				break
			}
			acc = append(acc, a)
		}
		e.stream = NewStream(name, acc)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.stream, nil
}

// Get returns a fresh replay cursor over the memoized access stream of the
// named app at the given scale, generating (and caching) the stream on
// first use. The replayed sequence is exactly what New(name, scale) would
// produce; each returned Generator has its own position and may be consumed
// concurrently with others (they share one Stream arena).
func (s *Store) Get(name string, scale float64) (Generator, error) {
	st, err := s.Stream(name, scale)
	if err != nil {
		return nil, err
	}
	return st.Cursor(), nil
}

// Len reports how many distinct (app, scale) streams are memoized.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Evict drops every memoized stream, releasing their memory. Long-lived
// processes sweeping many distinct scales can call it between sweeps; a
// full-length 20-app suite holds on the order of a hundred megabytes.
func (s *Store) Evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[storeKey]*storeEntry)
}
