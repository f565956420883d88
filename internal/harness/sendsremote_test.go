package harness

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ipex/internal/nvp"
	"ipex/internal/trace"
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
func remoteCells(copies int, calls *atomic.Uint64, keys ...string) []Cell {
	var cells []Cell
	for i := 0; i < copies; i++ {
		for _, k := range keys {
			c := countingCell(k, calls)
			c.RemoteReq = []byte(`{}`)
			cells = append(cells, c)
		}
	}
	return cells
}

// An observed journaled sweep — spans recorded and every finished cell
// watched — still offers each key once and sends each key once: the
// observer sees all six cells, four of them answered by the memo.
func TestPrefetchOffersObservedCellsOncePerKey(t *testing.T) {
	s, lines := journaled(t)
	s.Obs = NewObs(&trace.FakeClock{}, trace.NewRegistry())
	rr := &prefetchingRemote{countingRemote: countingRemote{calls: map[string]int{}}}
	s.Remote = rr
	var local, seen, replayed atomic.Uint64
	p := &Pool{Workers: 2, Sup: s, OnDone: func(_ int, _ nvp.Result, _ error, rep bool) {
		seen.Add(1)
		if rep {
			replayed.Add(1)
		}
	}}
	if _, _, interrupted := p.Run(remoteCells(3, &local, "a", "b")); interrupted != nil {
		t.Fatal(interrupted)
	}
	if len(rr.offered) != 1 {
		t.Fatalf("PrefetchRemote called %d times, want once", len(rr.offered))
	}
	if got := rr.offered[0]; !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("offered keys %v, want [a b]: each key once", got)
	}
	if rr.calls["a"] != 1 || rr.calls["b"] != 1 || local.Load() != 0 {
		t.Fatalf("RunRemote calls = %v, local runs = %d; want one remote call per key", rr.calls, local.Load())
	}
	if seen.Load() != 6 || replayed.Load() != 4 {
		t.Fatalf("observer saw %d cells, %d replayed; want 6, 4", seen.Load(), replayed.Load())
	}
	if cs := s.Counters.Snapshot(); cs.Remote != 2 || cs.Replayed != 4 {
		t.Fatalf("counters = %+v", cs)
	}
	if n := len(lines()); n != 6 {
		t.Fatalf("journal holds %d cell lines, want 6", n)
	}
}

// A key a resumed journal answers never reaches the runner: SendsRemote
// refuses it, so it is neither offered nor (by runAll) encoded.
func TestReplayedKeyIsNeitherOfferedNorSent(t *testing.T) {
	s, _ := journaled(t)
	want := okResult("fft")
	s.Replay = map[string]*Entry{"a": {Kind: KindCell, Key: "a", Result: &want}}
	rr := &prefetchingRemote{countingRemote: countingRemote{calls: map[string]int{}}}
	s.Remote = rr
	var local atomic.Uint64
	cells := remoteCells(2, &local, "a", "b")
	if s.SendsRemote(cells[0]) || !s.SendsRemote(cells[1]) {
		t.Fatalf("SendsRemote(a)=%v SendsRemote(b)=%v, want false, true",
			s.SendsRemote(cells[0]), s.SendsRemote(cells[1]))
	}
	if _, _, interrupted := (&Pool{Workers: 2, Sup: s}).Run(cells); interrupted != nil {
		t.Fatal(interrupted)
	}
	if len(rr.offered) != 1 || !slices.Equal(rr.offered[0], []string{"b"}) {
		t.Fatalf("offered %v, want one batch of [b]", rr.offered)
	}
	if rr.calls["a"] != 0 || local.Load() != 0 {
		t.Fatalf("replayed key ran: %d remote, %d local", rr.calls["a"], local.Load())
	}
}

// SendsRemote refuses cells that never reach RunRemote, including a repeat
// of a key the memo has finished, whether or not a journal is attached.
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
	journaledSup, _ := journaled(t)
	for _, s := range []*Supervisor{{}, journaledSup} {
		s.Remote = &countingRemote{calls: map[string]int{}}
		if s.SendsRemote(countingCell("", &calls)) {
			t.Fatal("accepted a keyless cell")
		}
		c := keyed
		if !s.SendsRemote(c) {
			t.Fatal("refused a fresh key")
		}
		c.RemoteReq = []byte(`{}`)
		if _, err, _ := s.RunCell(c, nil); err != nil {
			t.Fatal(err)
		}
		if s.SendsRemote(c) {
			t.Fatalf("journal=%v: accepted a key the memo answers", s.Journal != nil)
		}
	}
}
