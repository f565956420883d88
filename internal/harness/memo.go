package harness

import "sync"

// memo is a Supervisor's singleflight over every keyed cell it runs: the
// first copy of a key leads and runs; every later copy waits for the
// leader, then takes the leader's KindCell entry instead of simulating or
// farming out the key again, and journals a copy of it when a journal is
// attached. A sweep's figures share their per-app baselines, so about a
// third of a full sweep's cells repeat a key. A repeat behaves like a
// resumed cell: it runs no simulation, so it writes no trace file and adds
// no metrics, and neither a journal nor an observer changes how many cells
// a sweep simulates.
//
// The memo holds only completed KindCell entries. A fail, a panic, a
// truncated run or an exhausted retry forgets the key, so the next copy runs
// it afresh — exactly what a resume of the journal would do. Entries are
// never evicted: a long-lived Supervisor that must bound its memory (ipexd)
// runs unkeyed cells and caches elsewhere.
type memo struct {
	mu    sync.Mutex
	calls map[string]*memoCall
}

// memoCall is one key's leading run. done closes when the leader finishes;
// entry is then the leader's journaled entry. A call whose leader produced
// nothing shareable is removed from the memo before done closes, so its
// waiters retry the key.
type memoCall struct {
	done  chan struct{}
	entry *Entry
}

// join returns key's call and whether the caller leads it: a new call when
// none exists, otherwise the running or finished one.
func (m *memo) join(key string) (*memoCall, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.calls[key]; c != nil {
		return c, false
	}
	if m.calls == nil {
		m.calls = make(map[string]*memoCall)
	}
	c := &memoCall{done: make(chan struct{})}
	m.calls[key] = c
	return c, true
}

// finish publishes the leader's outcome — e, the KindCell entry it
// journaled, or nil after a failure — and releases every waiter.
func (m *memo) finish(key string, c *memoCall, e *Entry) {
	m.mu.Lock()
	if e == nil || !e.Result.Completed {
		delete(m.calls, key)
	} else {
		c.entry = e
	}
	m.mu.Unlock()
	close(c.done)
}

// finished reports whether key's leader has already published a shareable
// entry, so every later copy of the key replays it.
func (m *memo) finished(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.calls[key]
	return c != nil && c.entry != nil
}
