package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ipex/internal/nvp"
)

// countSyncs wraps j's fsync with a counter (the journal's sync test seam).
func countSyncs(j *Journal) *atomic.Int64 {
	var n atomic.Int64
	inner := j.sync
	j.sync = func() error {
		n.Add(1)
		return inner()
	}
	return &n
}

func cellEntry(key string) Entry {
	res := nvp.Result{App: "fft", Completed: true}
	return Entry{Kind: KindCell, Key: key, App: "fft", Attempts: 1, Result: &res}
}

func TestJournalAppendReturnsAfterCoveringSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// durableSize is the largest file size at the start of a finished
	// fsync: every byte below it was written before that fsync began.
	// Overlapping fsyncs may finish out of order, hence the maximum.
	var durableSize atomic.Int64
	inner := j.sync
	j.sync = func() error {
		fi, err := j.f.Stat()
		if err != nil {
			return err
		}
		if err := inner(); err != nil {
			return err
		}
		for {
			cur := durableSize.Load()
			if fi.Size() <= cur || durableSize.CompareAndSwap(cur, fi.Size()) {
				return nil
			}
		}
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key%02d", i)
			if err := j.Append(cellEntry(key)); err != nil {
				t.Error(err)
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			at := bytes.Index(b, []byte(`"key":"`+key+`"`))
			if at < 0 {
				t.Errorf("%s: line missing from the journal", key)
				return
			}
			end := at + bytes.IndexByte(b[at:], '\n') + 1
			if int64(end) > durableSize.Load() {
				t.Errorf("%s: Append returned before a sync covered its line (ends at %d, durable %d)", key, end, durableSize.Load())
			}
		}(i)
	}
	wg.Wait()
}

// gateSyncs makes each of j's fsyncs announce itself on the returned
// channel and block until the test replies: nil lets the real fsync run,
// an error is returned in its place. Each Append starts at most one fsync
// and announces it after releasing j.mu, so j.running shows what runs.
func gateSyncs(j *Journal) chan chan error {
	started := make(chan chan error, 16)
	inner := j.sync
	j.sync = func() error {
		reply := make(chan error)
		started <- reply
		if err := <-reply; err != nil {
			return err
		}
		return inner()
	}
	return started
}

// appendAsync appends a cell line for key on its own goroutine and returns
// the channel its Append result arrives on.
func appendAsync(j *Journal, key string) chan error {
	done := make(chan error, 1)
	go func() { done <- j.Append(cellEntry(key)) }()
	return done
}

// waitState spins until j has written lines lines (the header included)
// and runs want fsyncs, then reports whether it saw exactly that.
func waitState(t *testing.T, j *Journal, lines uint64, want int) {
	t.Helper()
	for {
		j.mu.Lock()
		written, running := j.written, len(j.running)
		j.mu.Unlock()
		if written == lines {
			if running != want {
				t.Fatalf("%d fsyncs running with %d lines written, want %d", running, written, want)
			}
			return
		}
		runtime.Gosched()
	}
}

func TestJournalAppendDoesNotWaitForOlderSync(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "sweep.jsonl"), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	started := gateSyncs(j)
	a := appendAsync(j, "a")
	stalled := <-started
	// a's fsync started before b's line was written, so it cannot cover
	// it: b starts its own fsync and returns while a's is still stalled.
	b := appendAsync(j, "b")
	(<-started) <- nil
	if err := <-b; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-a:
		t.Fatalf("a returned (%v) while its fsync was stalled", err)
	default:
	}
	stalled <- nil
	if err := <-a; err != nil {
		t.Fatal(err)
	}
}

func TestJournalConcurrentAppendsShareSync(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "sweep.jsonl"), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	started := gateSyncs(j)
	first := appendAsync(j, "a")
	s1 := <-started
	second := appendAsync(j, "b")
	s2 := <-started
	// Both fsync slots are busy: c, d and e write their lines and wait.
	var rest []chan error
	for _, k := range []string{"c", "d", "e"} {
		rest = append(rest, appendAsync(j, k))
	}
	waitState(t, j, 6, maxSyncs)
	// Once a slot frees up, one of the three starts an fsync that covers
	// all their lines; the other two start none.
	s1 <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	(<-started) <- nil
	for _, done := range rest {
		for waiting := true; waiting; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				waiting = false
			case extra := <-started:
				t.Error("an appender whose line an in-flight fsync covered started another")
				extra <- nil
			}
		}
	}
	s2 <- nil
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

func TestJournalRunsAtMostTwoSyncs(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "sweep.jsonl"), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var inFlight, peak atomic.Int64
	inner := j.sync
	j.sync = func() error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		defer inFlight.Add(-1)
		return inner()
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				if err := j.Append(cellEntry(fmt.Sprintf("key%d-%d", i, r))); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > maxSyncs {
		t.Fatalf("%d fsyncs ran at once, want at most %d", p, maxSyncs)
	}
}

func TestJournalSyncErrorWakesWaiters(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "sweep.jsonl"), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	started := gateSyncs(j)
	injected := errors.New("injected fsync failure")
	first := appendAsync(j, "a")
	s1 := <-started
	second := appendAsync(j, "b")
	s2 := <-started
	c, d := appendAsync(j, "c"), appendAsync(j, "d")
	waitState(t, j, 5, maxSyncs)
	// The fsync covering c and d fails: its starter returns the error, and
	// the other appender, which was waiting on it, starts a new one.
	s1 <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	(<-started) <- injected
	retry := <-started
	j.mu.Lock()
	durable, written := j.durable, j.written
	j.mu.Unlock()
	if durable >= written {
		t.Fatalf("durable %d of %d lines after the failed fsync", durable, written)
	}
	retry <- nil
	var failed int
	for _, done := range []chan error{c, d} {
		if err := <-done; errors.Is(err, injected) {
			failed++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d appenders saw the fsync error, want 1", failed)
	}
	s2 <- nil
	if err := <-second; err != nil {
		t.Fatal(err)
	}

	// A lone failed fsync leaves its line not durable; the next Append
	// makes it durable.
	e := appendAsync(j, "e")
	(<-started) <- injected
	if err := <-e; !errors.Is(err, injected) {
		t.Fatalf("Append = %v, want the injected fsync error", err)
	}
	f := appendAsync(j, "f")
	(<-started) <- nil
	if err := <-f; err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	durable, written = j.durable, j.written
	j.mu.Unlock()
	if durable != written {
		t.Fatalf("durable %d of %d lines after a successful fsync", durable, written)
	}
}

func TestJournalSkipsSyncForRepeatedCellKey(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "sweep.jsonl"), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	syncs := countSyncs(j)
	steps := []struct {
		e    Entry
		sync bool
	}{
		{cellEntry("a"), true},
		{cellEntry("a"), false},
		{cellEntry("b"), true},
		{cellEntry("a"), false},
		{Entry{Kind: KindFail, Key: "c", Error: "boom"}, true},
		{Entry{Kind: KindFail, Key: "c", Error: "boom"}, true},
		// A fail line would shadow a's earlier cell line on resume, so the
		// next cell line for a is synced itself.
		{Entry{Kind: KindFail, Key: "a", Error: "boom"}, true},
		{cellEntry("a"), true},
		{cellEntry("a"), false},
	}
	for i, st := range steps {
		before := syncs.Load()
		if err := j.Append(st.e); err != nil {
			t.Fatal(err)
		}
		if synced := syncs.Load() > before; synced != st.sync {
			t.Fatalf("step %d (%s %s): synced=%v, want %v", i, st.e.Kind, st.e.Key, synced, st.sync)
		}
	}
}

func TestResumeRepeatedLinesAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "a", "b", "a", "b"} {
		if err := j.Append(cellEntry(k)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// A crash mid-write of an unsynced repeat leaves a torn final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"cell","key":"b","app":"fft","attempts":1,"res`)
	f.Close()

	j2, entries, warns, err := ResumeJournal(path, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(warns) != 1 || !strings.Contains(warns[0], ":7:") {
		t.Fatalf("warnings = %v, want exactly one, for the torn line 7", warns)
	}
	for _, k := range []string{"a", "b"} {
		if e := entries[k]; e == nil || e.Kind != KindCell || e.Result == nil || !e.Result.Completed {
			t.Fatalf("key %s not replayable: %+v", k, e)
		}
	}
}
