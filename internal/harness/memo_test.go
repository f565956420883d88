package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ipex/internal/nvp"
)

// journaled returns a supervisor writing to a fresh journal, and a function
// that closes the journal and returns its cell lines (header dropped).
func journaled(t *testing.T) (*Supervisor, func() [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return &Supervisor{Journal: j}, func() [][]byte {
		t.Helper()
		j.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
		return lines[1:]
	}
}

// countingCell simulates key by returning a completed result whose Insts
// numbers the call, so a memo answer is told apart from a fresh run.
func countingCell(key string, calls *atomic.Uint64) Cell {
	return Cell{Key: key, Label: "fft", Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
		n := calls.Add(1)
		return nvp.Result{App: "fft", Completed: true, Insts: n}, nil
	}}
}

func TestMemoSerialRepeatRunsOnce(t *testing.T) {
	s, lines := journaled(t)
	var calls atomic.Uint64
	c := countingCell("k", &calls)
	first, err, replayed := s.RunCell(c, nil)
	if err != nil || replayed {
		t.Fatalf("first copy: err=%v replayed=%v", err, replayed)
	}
	second, err, replayed := s.RunCell(c, nil)
	if err != nil || !replayed {
		t.Fatalf("repeat: err=%v replayed=%v, want a journal answer", err, replayed)
	}
	if calls.Load() != 1 || second.Insts != first.Insts {
		t.Fatalf("calls=%d, results %+v vs %+v: want one simulation shared", calls.Load(), first, second)
	}
	if cs := s.Counters.Snapshot(); cs.Executed != 1 || cs.Replayed != 1 {
		t.Fatalf("counters = %+v, want Executed 1, Replayed 1", cs)
	}
	ls := lines()
	if len(ls) != 2 || !bytes.Equal(ls[0], ls[1]) {
		t.Fatalf("journal cell lines are not two identical lines:\n%s", bytes.Join(ls, []byte("\n")))
	}
}

// startGate signals each cell the supervisor takes (through Skip, which
// RunCell consults first), so a cell body can wait until its concurrent
// copy has entered RunCell. Its buffer holds one signal per cell of the
// two-cell pools below, so Skip never blocks.
type startGate chan struct{}

func newStartGate() startGate { return make(startGate, 2) }

func (g startGate) skip(string) bool { g <- struct{}{}; return false }

// waitForBoth returns once both cells have started.
func (g startGate) waitForBoth() { <-g; <-g }

func TestMemoSingleflightOnPool(t *testing.T) {
	s, lines := journaled(t)
	g := newStartGate()
	s.Skip = g.skip
	var calls atomic.Uint64
	run := func(context.Context, *nvp.Arena) (nvp.Result, error) {
		// Hold the leader until its copy is inside RunCell, so the copy must
		// wait for it rather than find a finished entry.
		g.waitForBoth()
		calls.Add(1)
		return okResult("fft"), nil
	}
	cells := []Cell{{Key: "k", Label: "fft", Run: run}, {Key: "k", Label: "fft", Run: run}}
	results, errs, interrupted := (&Pool{Workers: 2, Sup: s}).Run(cells)
	if interrupted != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("interrupted=%v errs=%v", interrupted, errs)
	}
	if calls.Load() != 1 || !results[0].Completed || !results[1].Completed {
		t.Fatalf("calls=%d results=%+v, want one shared simulation", calls.Load(), results)
	}
	if cs := s.Counters.Snapshot(); cs.Executed != 1 || cs.Replayed != 1 {
		t.Fatalf("counters = %+v, want Executed 1, Replayed 1", cs)
	}
	if ls := lines(); len(ls) != 2 || !bytes.Equal(ls[0], ls[1]) {
		t.Fatalf("journal cell lines:\n%s", bytes.Join(ls, []byte("\n")))
	}
}

func TestMemoManyCopiesManyKeys(t *testing.T) {
	s, lines := journaled(t)
	calls := map[string]*atomic.Uint64{"a": {}, "b": {}, "c": {}}
	var cells []Cell
	for i := 0; i < 8; i++ {
		for _, k := range []string{"a", "b", "c"} {
			cells = append(cells, countingCell(k, calls[k]))
		}
	}
	if _, _, interrupted := (&Pool{Workers: 4, Sup: s}).Run(cells); interrupted != nil {
		t.Fatal(interrupted)
	}
	for k, n := range calls {
		if n.Load() != 1 {
			t.Errorf("key %s simulated %d times, want 1", k, n.Load())
		}
	}
	if cs := s.Counters.Snapshot(); cs.Executed != 3 || cs.Replayed != 21 {
		t.Fatalf("counters = %+v, want Executed 3, Replayed 21", cs)
	}
	byLine := map[string]int{}
	for _, l := range lines() {
		byLine[string(l)]++
	}
	if len(byLine) != 3 {
		t.Fatalf("journal holds %d distinct lines, want 3", len(byLine))
	}
	for l, n := range byLine {
		if n != 8 {
			t.Errorf("line written %d times, want 8: %s", n, l)
		}
	}
}

func TestMemoRerunsUnshareableOutcomes(t *testing.T) {
	cases := []struct {
		name       string
		maxRetries int
		// first is the first copy's run; the repeat always succeeds.
		first func(call uint64) (nvp.Result, error)
		calls uint64 // total runs over both copies
	}{
		{"fail", 0, func(uint64) (nvp.Result, error) { return nvp.Result{}, errors.New("hard failure") }, 2},
		{"panic", 0, func(uint64) (nvp.Result, error) { panic("poisoned") }, 2},
		{"transient retries exhausted", 1, func(uint64) (nvp.Result, error) {
			return nvp.Result{}, Transient(errors.New("flaky"))
		}, 3},
		{"truncation retries exhausted", 1, func(uint64) (nvp.Result, error) {
			return nvp.Result{App: "fft"}, nil
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := journaled(t)
			s.MaxRetries = tc.maxRetries
			var calls atomic.Uint64
			limit := uint64(tc.maxRetries + 1)
			c := Cell{Key: "k", Label: "fft", Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
				if n := calls.Add(1); n <= limit {
					return tc.first(n)
				}
				return okResult("fft"), nil
			}}
			s.RunCell(c, nil)
			res, err, replayed := s.RunCell(c, nil)
			if err != nil || replayed || !res.Completed {
				t.Fatalf("repeat: res=%+v err=%v replayed=%v, want a fresh successful run", res, err, replayed)
			}
			if calls.Load() != tc.calls {
				t.Fatalf("calls = %d, want %d", calls.Load(), tc.calls)
			}
			// The successful repeat is shared from now on.
			if _, _, replayed := s.RunCell(c, nil); !replayed || calls.Load() != tc.calls {
				t.Fatalf("third copy: replayed=%v calls=%d", replayed, calls.Load())
			}
		})
	}
}

func TestMemoWaiterRerunsAfterFailedLeader(t *testing.T) {
	s, _ := journaled(t)
	g := newStartGate()
	s.Skip = g.skip
	var calls atomic.Uint64
	run := func(context.Context, *nvp.Arena) (nvp.Result, error) {
		if calls.Add(1) == 1 {
			g.waitForBoth()
			return nvp.Result{}, errors.New("leader failed")
		}
		return okResult("fft"), nil
	}
	cells := []Cell{{Key: "k", Label: "fft", Run: run}, {Key: "k", Label: "fft", Run: run}}
	_, errs, _ := (&Pool{Workers: 2, Sup: s}).Run(cells)
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (the waiter re-runs a failed key)", calls.Load())
	}
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("errs = %v, want exactly the leader's copy failed", errs)
	}
	if cs := s.Counters.Snapshot(); cs.Executed != 2 || cs.Replayed != 0 || cs.Failures != 1 {
		t.Fatalf("counters = %+v", cs)
	}
}

func TestMemoNeverServes(t *testing.T) {
	cases := []struct {
		name string
		sup  func(t *testing.T) *Supervisor
		key  string
		obs  bool
	}{
		{"empty key", func(t *testing.T) *Supervisor { s, _ := journaled(t); return s }, "", false},
		{"no journal", func(*testing.T) *Supervisor { return &Supervisor{} }, "k", false},
		{"observed cell", func(t *testing.T) *Supervisor { s, _ := journaled(t); return s }, "k", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sup(t)
			var calls atomic.Uint64
			c := countingCell(tc.key, &calls)
			c.Observed = tc.obs
			for i := 0; i < 2; i++ {
				if _, _, replayed := s.RunCell(c, nil); replayed {
					t.Fatalf("copy %d answered from the memo", i)
				}
			}
			if calls.Load() != 2 {
				t.Fatalf("calls = %d, want 2", calls.Load())
			}
			if cs := s.Counters.Snapshot(); cs.Executed != 2 || cs.Replayed != 0 {
				t.Fatalf("counters = %+v", cs)
			}
		})
	}
}

// countingRemote answers every cell remotely and counts calls per key.
type countingRemote struct {
	mu    sync.Mutex
	calls map[string]int
}

func (r *countingRemote) RunRemote(key, label string, _ []byte) (nvp.Result, bool, error) {
	r.mu.Lock()
	r.calls[key]++
	r.mu.Unlock()
	return okResult(label), true, nil
}

func TestMemoRemotableRepeatCallsRemoteOnce(t *testing.T) {
	s, lines := journaled(t)
	rr := &countingRemote{calls: map[string]int{}}
	s.Remote = rr
	var local atomic.Uint64
	var cells []Cell
	for i := 0; i < 3; i++ {
		for _, k := range []string{"a", "b"} {
			c := countingCell(k, &local)
			c.RemoteReq = []byte(`{}`)
			cells = append(cells, c)
		}
	}
	if _, _, interrupted := (&Pool{Workers: 2, Sup: s}).Run(cells); interrupted != nil {
		t.Fatal(interrupted)
	}
	if rr.calls["a"] != 1 || rr.calls["b"] != 1 || local.Load() != 0 {
		t.Fatalf("RunRemote calls = %v, local runs = %d; want one remote call per key", rr.calls, local.Load())
	}
	if cs := s.Counters.Snapshot(); cs.Remote != 2 || cs.Replayed != 4 || cs.Executed != 0 {
		t.Fatalf("counters = %+v", cs)
	}
	if n := len(lines()); n != 6 {
		t.Fatalf("journal holds %d cell lines, want 6 (one per cell)", n)
	}
}
