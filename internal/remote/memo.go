package remote

import (
	"crypto/sha256"
	"sync"
)

// BodyMemo remembers one value per request body, by the body's SHA-256:
// what the body resolves to when that is a function of its bytes alone.
// EncodeCell keeps what Build makes of a request in one, ipexd the cell key
// of each body it resolved. It holds at most its bound of entries, dropping
// an arbitrary one to admit another; a bound below 1 holds nothing. It is
// safe for concurrent use.
type BodyMemo[V any] struct {
	mu  sync.Mutex
	max int
	m   map[[sha256.Size]byte]V
}

// NewBodyMemo returns an empty memo of at most max entries.
func NewBodyMemo[V any](max int) *BodyMemo[V] {
	return &BodyMemo[V]{max: max, m: make(map[[sha256.Size]byte]V)}
}

// Get returns the value remembered for the body whose SHA-256 is sum.
func (m *BodyMemo[V]) Get(sum [sha256.Size]byte) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.m[sum]
	return v, ok
}

// Put remembers v for the body whose SHA-256 is sum.
func (m *BodyMemo[V]) Put(sum [sha256.Size]byte, v V) {
	if m.max < 1 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[sum]; !ok && len(m.m) >= m.max {
		for k := range m.m {
			delete(m.m, k)
			break
		}
	}
	m.m[sum] = v
}

// Len is the number of bodies remembered.
func (m *BodyMemo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
