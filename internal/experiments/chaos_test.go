package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipex/internal/harness"
	"ipex/internal/nvp"
)

// chaosOpts is a tiny, fast sweep: 2 apps × 4 configurations = 8 cells.
func chaosOpts() Options {
	return Options{Scale: 0.02, Apps: []string{"fft", "gsme"}, Parallelism: 2}
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInterruptResumeBitIdentical is the tentpole round trip: a sweep
// interrupted mid-flight (deterministically, via the StopAfter drain — the
// same code path a SIGINT takes) and then resumed from its journal must
// produce a byte-identical result to an uninterrupted sweep.
func TestInterruptResumeBitIdentical(t *testing.T) {
	golden, err := Fig11(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := harness.CreateJournal(path, "chaos-sweep")
	if err != nil {
		t.Fatal(err)
	}
	o := chaosOpts()
	o.Sup = &harness.Supervisor{Journal: j, StopAfter: 3}
	if _, err := Fig11(o); !errors.Is(err, harness.ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
	}
	j.Close()
	if cs := o.Sup.Counters.Snapshot(); cs.Executed != 3 {
		t.Fatalf("executed %d cells before the drain, want 3", cs.Executed)
	}

	j2, replay, warns, err := harness.ResumeJournal(path, "chaos-sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(warns) != 0 {
		t.Fatalf("clean journal produced warnings: %v", warns)
	}
	o2 := chaosOpts()
	o2.Sup = &harness.Supervisor{Journal: j2, Replay: replay}
	resumed, err := Fig11(o2)
	if err != nil {
		t.Fatal(err)
	}
	if cs := o2.Sup.Counters.Snapshot(); cs.Replayed != 3 {
		t.Fatalf("resume replayed %d cells, want 3", cs.Replayed)
	}
	if g, r := asJSON(t, golden), asJSON(t, resumed); g != r {
		t.Fatalf("resumed result differs from uninterrupted golden:\n got %s\nwant %s", r, g)
	}
	if g, r := golden.String(), resumed.String(); g != r {
		t.Fatalf("rendered tables differ:\n got %s\nwant %s", r, g)
	}
}

// TestResumeWithCorruptedLine drops a corrupted line into the journal: the
// cell behind it must be re-simulated, with a warning, and the final result
// must still match the golden.
func TestResumeWithCorruptedLine(t *testing.T) {
	golden, err := Fig11(chaosOpts())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := harness.CreateJournal(path, "chaos-sweep")
	if err != nil {
		t.Fatal(err)
	}
	o := chaosOpts()
	o.Sup = &harness.Supervisor{Journal: j, StopAfter: 4}
	if _, err := Fig11(o); !errors.Is(err, harness.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	j.Close()

	// Corrupt the final journaled cell: truncate the file mid-line, the
	// shape a crash during an append leaves behind.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replay, warns, err := harness.ResumeJournal(path, "chaos-sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(warns) != 1 || !strings.Contains(warns[0], "re-run") {
		t.Fatalf("warnings = %v, want one truncated-line warning", warns)
	}
	o2 := chaosOpts()
	o2.Sup = &harness.Supervisor{Journal: j2, Replay: replay}
	resumed, err := Fig11(o2)
	if err != nil {
		t.Fatal(err)
	}
	cs := o2.Sup.Counters.Snapshot()
	if cs.Replayed != 3 {
		t.Fatalf("replayed %d cells, want 3 (the corrupted 4th must re-run)", cs.Replayed)
	}
	if g, r := asJSON(t, golden), asJSON(t, resumed); g != r {
		t.Fatalf("result with re-run cell differs from golden:\n got %s\nwant %s", r, g)
	}
}

// TestResumeRejectsChangedSweep pins the stale-journal guard at the sweep
// level: the caller (cmd/experiments) hashes its sweep definition into the
// header, and a resume under a different hash fails up front.
func TestResumeRejectsChangedSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	key1 := harness.Key(SweepIdentity{Experiments: []string{"fig11"}, Scale: 0.02, Apps: []string{"fft"}, TraceSeed: 1})
	j, err := harness.CreateJournal(path, key1)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	key2 := harness.Key(SweepIdentity{Experiments: []string{"fig11"}, Scale: 0.04, Apps: []string{"fft"}, TraceSeed: 1})
	if key1 == key2 {
		t.Fatal("sweep hash ignores scale")
	}
	if _, _, _, err := harness.ResumeJournal(path, key2); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("stale journal accepted: %v", err)
	}
}

// TestCellKeysSeparateConfigurations pins the per-cell identity: same app
// under different configurations, scales, or seeds must hash differently,
// and identical cells identically.
func TestCellKeysSeparateConfigurations(t *testing.T) {
	o := chaosOpts().norm()
	tr := o.trace(0)
	cfg := o.effective(nvp.DefaultConfig())
	j1 := job{app: "fft", tr: tr, cfg: cfg, ident: identityJSON(cfg)}
	k1 := cellKey(o, j1)
	if k2 := cellKey(o, j1); k2 != k1 {
		t.Fatal("identical cell hashed differently")
	}
	cfg2 := nvp.DefaultConfig()
	cfg2.IPEXData = true
	if k := cellKey(o, job{app: "fft", tr: tr, ident: identityJSON(o.effective(cfg2))}); k == k1 {
		t.Fatal("config change did not change the cell key")
	}
	o2 := o
	o2.Scale = o.Scale * 2
	if k := cellKey(o2, j1); k == k1 {
		t.Fatal("scale change did not change the cell key")
	}
	o3 := o
	o3.TraceSeed = 99
	if k := cellKey(o3, j1); k == k1 {
		t.Fatal("seed change did not change the cell key")
	}
}

// TestPanicIsolationSkipsOnlyThatApp injects a panic into every cell of one
// app (via the in-package test hook): the sweep must complete, report the
// poisoned app as skipped, and journal the panic with its stack.
func TestPanicIsolationSkipsOnlyThatApp(t *testing.T) {
	testCellHook = func(app string) {
		if app == "gsme" {
			panic("injected test panic in " + app)
		}
	}
	defer func() { testCellHook = nil }()

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := harness.CreateJournal(path, "panic-sweep")
	if err != nil {
		t.Fatal(err)
	}
	o := chaosOpts()
	o.Sup = &harness.Supervisor{Journal: j}
	res, err := Fig11(o)
	if err != nil {
		t.Fatalf("sweep with one poisoned app failed entirely: %v", err)
	}
	j.Close()
	if len(res.Skipped) != 1 || res.Skipped[0] != "gsme" {
		t.Fatalf("Skipped = %v, want exactly [gsme]", res.Skipped)
	}
	if s := res.String(); !strings.Contains(s, "skipped") || !strings.Contains(s, "gsme") {
		t.Fatalf("rendered result lacks the skipped note:\n%s", s)
	}
	for _, row := range res.Rows {
		if row.App == "gsme" {
			t.Fatal("poisoned app survived into the rows")
		}
	}
	cs := o.Sup.Counters.Snapshot()
	if cs.Panics != 4 {
		t.Fatalf("Panics = %d, want 4 (one per configuration of the poisoned app)", cs.Panics)
	}

	_, entries, _, err := harness.ResumeJournal(path, "panic-sweep")
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for _, e := range entries {
		if e.Kind != harness.KindFail {
			continue
		}
		fails++
		if e.App != "gsme" {
			t.Errorf("journaled failure for healthy app %s", e.App)
		}
		if !strings.Contains(e.Error, "injected test panic") {
			t.Errorf("journaled error %q lacks the panic value", e.Error)
		}
		if !strings.Contains(e.Stack, "goroutine") {
			t.Errorf("journaled entry lacks a goroutine stack")
		}
	}
	if fails != 4 {
		t.Errorf("journal holds %d failure entries, want 4", fails)
	}
}

// TestPanicRemovesHalfWrittenCellTrace covers the celltrace error path: a
// cell that panics after its trace file was created must not leave the
// half-written file behind.
func TestPanicRemovesHalfWrittenCellTrace(t *testing.T) {
	testCellHook = func(app string) {
		if app == "gsme" {
			panic("poisoned after trace open")
		}
	}
	defer func() { testCellHook = nil }()

	dir := t.TempDir()
	o := chaosOpts()
	o.Cells = NewCellTracing(dir)
	o.Cells.SetLabel("chaos")
	res, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 1 {
		t.Fatalf("Skipped = %v", res.Skipped)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f.Name(), "gsme") {
			t.Errorf("half-written cell trace %s left behind by a panic", f.Name())
		}
	}
	// The healthy app's traces all exist: 4 configurations of fft.
	if n := len(files); n != 4 {
		names := make([]string, 0, n)
		for _, f := range files {
			names = append(names, f.Name())
		}
		t.Fatalf("cell trace files = %v, want the 4 fft cells", names)
	}
	if got := o.Cells.Files(); got != 4 {
		t.Fatalf("Files() = %d, want 4", got)
	}
}
