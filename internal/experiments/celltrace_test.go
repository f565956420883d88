package experiments

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ipex/internal/harness"
	"ipex/internal/tracestat"
)

// TestCellTracingParallelSweep runs one experiment with per-cell tracing and
// full parallelism: every sweep cell must land in its own deterministically
// named JSONL file, each individually analyzable, and the sweep result must
// be unaffected by the tracing.
func TestCellTracingParallelSweep(t *testing.T) {
	dir := t.TempDir()
	o := tiny()
	o.Parallelism = 4
	o.Cells = NewCellTracing(dir)
	o.Cells.SetLabel("fig11")
	o.Progress = &Progress{}

	traced, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if traced.String() != plain.String() {
		t.Error("cell tracing changed the experiment result")
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(ents)) != o.Cells.Files() || len(ents) == 0 {
		t.Fatalf("wrote %d files, Files() = %d", len(ents), o.Cells.Files())
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if !strings.HasPrefix(names[0], "000001_fig11_") || !strings.HasSuffix(names[0], ".jsonl") {
		t.Errorf("unexpected first cell name %q", names[0])
	}

	// Every cell file is a complete, analyzable single-run stream.
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tracestat.Analyze(f, tracestat.Options{})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Runs) != 1 || rep.Runs[0].EndDetail == "" {
			t.Errorf("%s: reconstructed %d run(s), EndDetail %q",
				name, len(rep.Runs), rep.Runs[0].EndDetail)
		}
	}

	// Progress saw every cell.
	done, total, insts := o.Progress.Snapshot()
	if done != total || done != uint64(len(ents)) || insts == 0 {
		t.Errorf("progress = %d/%d insts=%d, want %d/%d", done, total, insts, len(ents), len(ents))
	}
}

// TestCellNamesDeterministic: the same command line reserves the same names
// regardless of Parallelism. Under one supervisor, Fig12 after Fig10 writes
// no file: every Fig12 cell repeats a key Fig10 already ran.
func TestCellNamesDeterministic(t *testing.T) {
	listNames := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names
	}
	runNames := func(par int) []string {
		dir := t.TempDir()
		o := tiny()
		o.Parallelism = par
		o.Cells = NewCellTracing(dir)
		o.Cells.SetLabel("fig11")
		if _, err := Fig11(o); err != nil {
			t.Fatal(err)
		}
		return listNames(dir)
	}
	sharedNames := func(par int) []string {
		dir := t.TempDir()
		o := tiny()
		o.Parallelism = par
		o.Sup = &harness.Supervisor{}
		o.Cells = NewCellTracing(dir)
		o.Cells.SetLabel("fig10")
		if _, err := Fig10(o); err != nil {
			t.Fatal(err)
		}
		fig10 := o.Cells.Files()
		o.Cells.SetLabel("fig12")
		if _, err := Fig12(o); err != nil {
			t.Fatal(err)
		}
		names := listNames(dir)
		if o.Cells.Files() != fig10 || uint64(len(names)) != fig10 || fig10 == 0 {
			t.Fatalf("parallelism %d: Fig10 wrote %d files, Fig10+Fig12 %d (%d on disk); want Fig12 to write none",
				par, fig10, o.Cells.Files(), len(names))
		}
		return names
	}
	for name, run := range map[string]func(int) []string{"fig11": runNames, "fig10+fig12": sharedNames} {
		a, b := run(1), run(8)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: cell names depend on parallelism:\n%v\nvs\n%v", name, a, b)
		}
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.addTotal(3)
	p.jobDone(10)
	if d, tot, i := p.Snapshot(); d != 0 || tot != 0 || i != 0 {
		t.Error("nil Progress retained values")
	}
	var c *CellTracing
	c.SetLabel("x")
	if c.Files() != 0 {
		t.Error("nil CellTracing retained values")
	}
}
