package harness

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// prefetchingRemote answers every cell remotely, counts RunRemote calls per
// key, and records the keys of every batch it is offered.
type prefetchingRemote struct {
	countingRemote
	mu      sync.Mutex
	offered [][]string
}

func (r *prefetchingRemote) PrefetchRemote(cells []RemoteCell) func() {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	r.mu.Lock()
	r.offered = append(r.offered, keys)
	r.mu.Unlock()
	return func() {}
}

// remoteCells returns copies of each key in turn, each carrying a request.
func remoteCells(copies int, observed bool, calls *atomic.Uint64, keys ...string) []Cell {
	var cells []Cell
	for i := 0; i < copies; i++ {
		for _, k := range keys {
			c := countingCell(k, calls)
			c.RemoteReq = []byte(`{}`)
			c.Observed = observed
			cells = append(cells, c)
		}
	}
	return cells
}

// Observed cells of a journaled sweep are never answered by the memo, so
// every copy goes remote, and the batch offers each of their keys once.
func TestPrefetchOffersObservedCellsOncePerKey(t *testing.T) {
	s, lines := journaled(t)
	rr := &prefetchingRemote{countingRemote: countingRemote{calls: map[string]int{}}}
	s.Remote = rr
	var local atomic.Uint64
	cells := remoteCells(3, true, &local, "a", "b")
	if _, _, interrupted := (&Pool{Workers: 2, Sup: s}).Run(cells); interrupted != nil {
		t.Fatal(interrupted)
	}
	if len(rr.offered) != 1 {
		t.Fatalf("PrefetchRemote called %d times, want once", len(rr.offered))
	}
	if got := rr.offered[0]; !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("offered keys %v, want [a b]: each key once", got)
	}
	if rr.calls["a"] != 3 || rr.calls["b"] != 3 || local.Load() != 0 {
		t.Fatalf("RunRemote calls = %v, local runs = %d; want every observed copy remote", rr.calls, local.Load())
	}
	if cs := s.Counters.Snapshot(); cs.Remote != 6 || cs.Replayed != 0 {
		t.Fatalf("counters = %+v", cs)
	}
	if n := len(lines()); n != 6 {
		t.Fatalf("journal holds %d cell lines, want 6", n)
	}
}

// A key a resumed journal answers never reaches the runner: SendsRemote
// refuses it, so it is neither offered nor (by runAll) encoded.
func TestReplayedKeyIsNeitherOfferedNorSent(t *testing.T) {
	for _, observed := range []bool{false, true} {
		s, _ := journaled(t)
		want := okResult("fft")
		s.Replay = map[string]*Entry{"a": {Kind: KindCell, Key: "a", Result: &want}}
		rr := &prefetchingRemote{countingRemote: countingRemote{calls: map[string]int{}}}
		s.Remote = rr
		var local atomic.Uint64
		cells := remoteCells(2, observed, &local, "a", "b")
		if s.SendsRemote(cells[0]) || !s.SendsRemote(cells[1]) {
			t.Fatalf("observed=%v: SendsRemote(a)=%v SendsRemote(b)=%v, want false, true",
				observed, s.SendsRemote(cells[0]), s.SendsRemote(cells[1]))
		}
		if _, _, interrupted := (&Pool{Workers: 2, Sup: s}).Run(cells); interrupted != nil {
			t.Fatal(interrupted)
		}
		if len(rr.offered) != 1 || !slices.Equal(rr.offered[0], []string{"b"}) {
			t.Fatalf("observed=%v: offered %v, want one batch of [b]", observed, rr.offered)
		}
		if rr.calls["a"] != 0 || local.Load() != 0 {
			t.Fatalf("observed=%v: replayed key ran: %d remote, %d local", observed, rr.calls["a"], local.Load())
		}
	}
}

// SendsRemote refuses cells that never reach RunRemote, and refuses an
// unobserved repeat of a key the memo has finished while still accepting
// an observed one.
func TestSendsRemote(t *testing.T) {
	var calls atomic.Uint64
	keyed := countingCell("k", &calls)
	if (&Supervisor{}).SendsRemote(keyed) {
		t.Fatal("accepted a cell without a runner")
	}
	var nilSup *Supervisor
	if nilSup.SendsRemote(keyed) {
		t.Fatal("nil supervisor accepted a cell")
	}
	s, _ := journaled(t)
	s.Remote = &countingRemote{calls: map[string]int{}}
	if s.SendsRemote(countingCell("", &calls)) {
		t.Fatal("accepted a keyless cell")
	}
	if !s.SendsRemote(keyed) {
		t.Fatal("refused a fresh key")
	}
	keyed.RemoteReq = []byte(`{}`)
	if _, err, _ := s.RunCell(keyed, nil); err != nil {
		t.Fatal(err)
	}
	if s.SendsRemote(keyed) {
		t.Fatal("accepted an unobserved key the memo answers")
	}
	keyed.Observed = true
	if !s.SendsRemote(keyed) {
		t.Fatal("refused an observed copy of a finished key")
	}
}
