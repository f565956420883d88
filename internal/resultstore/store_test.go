package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipex/internal/trace"
)

func mustStore(t *testing.T, dir string, cap int, reg *trace.Registry) *Store {
	t.Helper()
	s, err := New(dir, cap, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMissThenHitByteIdentical pins the service's core guarantee: the bytes
// a hit serves are exactly the bytes the fresh computation produced, through
// every tier (memory, disk, and a fresh store over the same directory).
func TestMissThenHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 8, nil)
	want := []byte(`{"app":"fft","cycles":12345}`)

	got, outcome, err := s.GetOrCompute("k1", func() ([]byte, error) { return want, nil })
	if err != nil || outcome != OutcomeComputed || !bytes.Equal(got, want) {
		t.Fatalf("fresh: got outcome=%v err=%v body=%q", outcome, err, got)
	}
	got, outcome, err = s.GetOrCompute("k1", func() ([]byte, error) {
		return nil, errors.New("compute must not run on a hit")
	})
	if err != nil || outcome != OutcomeMemoryHit || !bytes.Equal(got, want) {
		t.Fatalf("memory hit: got outcome=%v err=%v body=%q", outcome, err, got)
	}

	// A brand-new store over the same directory: the disk tier alone must
	// reproduce the fresh bytes (restart persistence).
	s2 := mustStore(t, dir, 8, nil)
	got, outcome, ok := s2.Get("k1")
	if !ok || outcome != OutcomeDiskHit || !bytes.Equal(got, want) {
		t.Fatalf("disk hit after restart: got ok=%v outcome=%v body=%q", ok, outcome, got)
	}
	// ...and the disk hit was promoted into memory.
	if _, outcome, _ := s2.Get("k1"); outcome != OutcomeMemoryHit {
		t.Fatalf("promotion: second lookup got %v, want memory hit", outcome)
	}
}

// TestSingleflight proves N concurrent identical requests cost exactly one
// computation: a leader runs compute while every follower blocks on its
// completion and shares the same body.
func TestSingleflight(t *testing.T) {
	s := mustStore(t, "", 8, trace.NewRegistry())
	const followers = 16

	var calls atomic.Int64
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	want := []byte("singleflight-body")

	results := make([][]byte, followers+1)
	outcomes := make([]Outcome, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, o, err := s.GetOrCompute("k", func() ([]byte, error) {
			calls.Add(1)
			close(leaderIn) // inflight registration is visible from here on
			<-gate
			return want, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0], outcomes[0] = body, o
	}()
	<-leaderIn

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, o, err := s.GetOrCompute("k", func() ([]byte, error) {
				calls.Add(1)
				return nil, errors.New("follower compute must never run")
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i], outcomes[i] = body, o
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	computed, coalescedOrHit := 0, 0
	for i, o := range outcomes {
		if !bytes.Equal(results[i], want) {
			t.Fatalf("caller %d got %q, want %q", i, results[i], want)
		}
		switch o {
		case OutcomeComputed:
			computed++
		case OutcomeCoalesced, OutcomeMemoryHit:
			// A follower arriving after the leader published is a memory
			// hit; mid-flight it coalesces. Both avoid the computation.
			coalescedOrHit++
		default:
			t.Fatalf("caller %d got outcome %v", i, o)
		}
	}
	if computed != 1 || coalescedOrHit != followers {
		t.Fatalf("outcome partition: computed=%d shared=%d, want 1 and %d", computed, coalescedOrHit, followers)
	}
}

// TestLRUEvictionDiskRefill pins the two-tier interplay: eviction from the
// bounded memory tier loses nothing, because the disk tier refills (and
// re-promotes) the entry on the next lookup.
func TestLRUEvictionDiskRefill(t *testing.T) {
	reg := trace.NewRegistry()
	s := mustStore(t, t.TempDir(), 2, reg)
	body := func(k string) []byte { return []byte("body-of-" + k) }
	for _, k := range []string{"k1", "k2", "k3"} {
		k := k
		if _, _, err := s.GetOrCompute(k, func() ([]byte, error) { return body(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.MemLen(); n != 2 {
		t.Fatalf("memory tier holds %d entries, want 2 (cap)", n)
	}
	if reg.Counter("store.evicted").Load() != 1 {
		t.Fatalf("evicted counter = %d, want 1", reg.Counter("store.evicted").Load())
	}
	// k1 was the LRU victim: it must come back from disk, byte-identical.
	got, outcome, ok := s.Get("k1")
	if !ok || outcome != OutcomeDiskHit || !bytes.Equal(got, body("k1")) {
		t.Fatalf("evicted entry: ok=%v outcome=%v body=%q", ok, outcome, got)
	}
	// Refill evicted k2 (now the LRU tail); memory stays at capacity.
	if n := s.MemLen(); n != 2 {
		t.Fatalf("after refill memory tier holds %d entries, want 2", n)
	}
}

// TestCorruptDiskEntry pins the self-healing path: an entry that fails
// verification (here: one flipped body byte) is a miss, the cell is
// recomputed, and the rewritten entry verifies again.
func TestCorruptDiskEntry(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"flipped-byte": func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0xFF
			return out
		},
		"truncated": func(raw []byte) []byte { return raw[:len(raw)-4] },
		"foreign-schema": func(raw []byte) []byte {
			return append([]byte("other-schema/v9 x y\n"), raw...)
		},
		"no-header": func([]byte) []byte { return []byte("no newline at all") },
	} {
		t.Run(name, func(t *testing.T) {
			reg := trace.NewRegistry()
			// cap 1 so inserting a second key evicts the first from memory,
			// forcing the corrupted disk read.
			s := mustStore(t, t.TempDir(), 1, reg)
			want := []byte("sound-body")
			if _, _, err := s.GetOrCompute("k", func() ([]byte, error) { return want, nil }); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.GetOrCompute("other", func() ([]byte, error) { return []byte("x"), nil }); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(s.DiskPath("k"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.DiskPath("k"), mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			var calls atomic.Int64
			got, outcome, err := s.GetOrCompute("k", func() ([]byte, error) {
				calls.Add(1)
				return want, nil
			})
			if err != nil || outcome != OutcomeComputed || calls.Load() != 1 {
				t.Fatalf("corrupt entry: outcome=%v err=%v calls=%d, want recompute", outcome, err, calls.Load())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recomputed body %q, want %q", got, want)
			}
			if reg.Counter("store.corrupt").Load() == 0 {
				t.Fatal("corrupt counter not bumped")
			}
			// The rewrite healed the entry: a fresh store verifies it.
			s2 := mustStore(t, s.dir, 1, nil)
			if got, outcome, ok := s2.Get("k"); !ok || outcome != OutcomeDiskHit || !bytes.Equal(got, want) {
				t.Fatalf("healed entry: ok=%v outcome=%v body=%q", ok, outcome, got)
			}
		})
	}
}

// TestComputeErrorNotCached pins the failure contract: a compute error is
// returned but never stored, so the next request runs compute again.
func TestComputeErrorNotCached(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 8, trace.NewRegistry())
	boom := errors.New("transient simulation failure")
	if _, _, err := s.GetOrCompute("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the compute error", err)
	}
	if s.MemLen() != 0 {
		t.Fatal("failed computation left a memory-tier entry")
	}
	if _, err := os.Stat(s.DiskPath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed computation left a disk-tier entry: %v", err)
	}
	want := []byte("second-try")
	got, outcome, err := s.GetOrCompute("k", func() ([]byte, error) { return want, nil })
	if err != nil || outcome != OutcomeComputed || !bytes.Equal(got, want) {
		t.Fatalf("retry after failure: outcome=%v err=%v body=%q", outcome, err, got)
	}
}

// TestMemoryOnly pins the dir=="" mode: no disk tier, eviction is loss, and
// DiskPath reports the tier as absent.
func TestMemoryOnly(t *testing.T) {
	s := mustStore(t, "", 1, nil)
	if p := s.DiskPath("k"); p != "" {
		t.Fatalf("memory-only DiskPath = %q, want \"\"", p)
	}
	if _, _, err := s.GetOrCompute("k1", func() ([]byte, error) { return []byte("a"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetOrCompute("k2", func() ([]byte, error) { return []byte("b"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k1"); ok {
		t.Fatal("evicted memory-only entry still served")
	}
	if body, outcome, ok := s.Get("k2"); !ok || outcome != OutcomeMemoryHit || !bytes.Equal(body, []byte("b")) {
		t.Fatalf("resident entry: ok=%v outcome=%v body=%q", ok, outcome, body)
	}
}

// TestOutcomeStrings pins the response-header vocabulary.
func TestOutcomeStrings(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeMemoryHit: "hit",
		OutcomeDiskHit:   "hit-disk",
		OutcomeComputed:  "miss",
		OutcomeCoalesced: "coalesced",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if !OutcomeMemoryHit.Hit() || !OutcomeDiskHit.Hit() || OutcomeComputed.Hit() || OutcomeCoalesced.Hit() {
		t.Error("Hit() misclassifies an outcome")
	}
	if s := Outcome(99).String(); s != fmt.Sprintf("Outcome(%d)", 99) {
		t.Errorf("unknown outcome prints %q", s)
	}
}

// compute stores body under key through GetOrCompute, which must compute
// it.
func compute(t *testing.T, s *Store, key string, body []byte) {
	t.Helper()
	if _, out, err := s.GetOrCompute(key, func() ([]byte, error) { return body, nil }); err != nil || out != OutcomeComputed {
		t.Fatalf("GetOrCompute(%s) = %v, %v; want a computed body", key, out, err)
	}
}

// TestEvictDiskOver: the startup scan must delete oldest-first until the
// tier fits the byte cap, skip AtomicFile temporaries, and leave newer
// entries untouched.
func TestEvictDiskOver(t *testing.T) {
	dir := t.TempDir()
	reg := trace.NewRegistry()
	s := mustStore(t, dir, 8, reg)

	body := bytes.Repeat([]byte("x"), 100)
	var sizes []int64
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		compute(t, s, key, body)
		info, err := os.Stat(s.DiskPath(key))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
		// Strictly increasing mtimes, oldest = k0, without sleeping.
		mt := time.Unix(1_700_000_000+int64(i), 0)
		if err := os.Chtimes(s.DiskPath(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// A dot-prefixed straggler temp must never be counted or deleted.
	tmp := filepath.Join(dir, ".k9.tmp123")
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		t.Fatal(err)
	}

	// Cap to exactly the three newest entries: k0 and k1 must go.
	cap3 := sizes[2] + sizes[3] + sizes[4]
	evicted, freed, err := s.EvictDiskOver(cap3)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 || freed != sizes[0]+sizes[1] {
		t.Fatalf("evicted %d (%d bytes), want 2 (%d bytes)", evicted, freed, sizes[0]+sizes[1])
	}
	for i, want := range []bool{false, false, true, true, true} {
		_, err := os.Stat(s.DiskPath(fmt.Sprintf("k%d", i)))
		if got := err == nil; got != want {
			t.Errorf("k%d on disk = %v, want %v", i, got, want)
		}
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Errorf("eviction deleted the AtomicFile temporary: %v", err)
	}
	if got := reg.Counter("store.disk_evicted").Load(); got != 2 {
		t.Errorf("store.disk_evicted = %d, want 2", got)
	}

	// Under the cap already: a second pass is a no-op.
	if n, b, err := s.EvictDiskOver(cap3); n != 0 || b != 0 || err != nil {
		t.Fatalf("second pass evicted %d (%d bytes), err %v; want a no-op", n, b, err)
	}
	// No cap means no eviction.
	if n, _, _ := s.EvictDiskOver(0); n != 0 {
		t.Fatalf("maxBytes=0 evicted %d entries, want none", n)
	}
}

// TestEvictDiskNeverTouchesMemory: a body living in the memory LRU must
// keep serving memory hits after its disk entry is evicted — the two tiers
// have independent retention policies.
func TestEvictDiskNeverTouchesMemory(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 8, nil)
	want := []byte("resident body")
	compute(t, s, "hot", want)
	memBefore := s.MemLen()

	// Evict everything from disk (cap of one byte).
	evicted, _, err := s.EvictDiskOver(1)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 1 {
		t.Fatalf("evicted %d disk entries, want 1", evicted)
	}
	if _, err := os.Stat(s.DiskPath("hot")); err == nil {
		t.Fatal("disk entry survived a 1-byte cap")
	}

	if got := s.MemLen(); got != memBefore {
		t.Fatalf("memory tier shrank from %d to %d during disk eviction", memBefore, got)
	}
	got, outcome, ok := s.Get("hot")
	if !ok || outcome != OutcomeMemoryHit || !bytes.Equal(got, want) {
		t.Fatalf("after disk eviction: ok=%v outcome=%v body=%q, want a memory hit with the original body", ok, outcome, got)
	}
}
