package harness

import (
	"bytes"
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
	// durableSize is the file size at the start of the latest finished
	// fsync: every byte below it was written before that fsync began.
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
		durableSize.Store(fi.Size())
		return nil
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

func TestJournalConcurrentAppendsShareSync(t *testing.T) {
	j, err := CreateJournal(filepath.Join(t.TempDir(), "sweep.jsonl"), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	syncs := countSyncs(j)
	// Stall the first fsync until every appender has written its line.
	release := make(chan struct{})
	var stalled sync.Once
	inner := j.sync
	j.sync = func() error {
		stalled.Do(func() { <-release })
		return inner()
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(cellEntry(fmt.Sprintf("key%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for {
		j.mu.Lock()
		written := j.written
		j.mu.Unlock()
		if written == n+1 { // the header and every appender
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	// The stalled fsync covered only its leader's line; one more covered
	// the other n-1.
	if got := syncs.Load(); got != 2 {
		t.Fatalf("%d appenders took %d fsyncs, want 2", n, got)
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
