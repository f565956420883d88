// Command benchcompare judges the working tree against a base revision on
// the repository benchmark. It exports BASE with git archive, runs every
// BENCHMARK.json workload and BenchmarkLoops in alternated pairs on both
// trees, and fails when a median paired ratio is worse than its bound. Run
// it from the repository root:
//
//	make bench-compare BASE=<rev> OUT=BENCH_<slug>.json [CLAIM=<workload>/<metric>]
//
// OUT receives every run of both sides and every verdict. A CLAIM names the
// one metric a change says it improves; it adds a claim verdict that passes
// only when the change beats the base in at least 9 of 10 pairs and its
// median ratio is better than 1 by more than the base runs' IQR/median. The
// exit status is 1 when the change fails the gate or its claim and 2 when
// the comparison cannot run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ipex/internal/benchio"
	"ipex/internal/stats"
)

const (
	pairs = 10
	// loopBound is the worst median paired slowdown allowed on a
	// BenchmarkLoops config, set from the spread of the base-vs-base
	// record committed as BENCH_bench-compare.json.
	loopBound = 0.10
	loops     = "BenchmarkLoops"
	// claimWins is how many of the pairs a claimed gain must win.
	claimWins = 9
)

// loopLine matches one BenchmarkLoops sub-benchmark's go test line, e.g.
// "BenchmarkLoops/no-prefetch-2  60  14567221 ns/op  19221237 insts/s".
var loopLine = regexp.MustCompile(`(?m)^BenchmarkLoops/(\S+?)(?:-\d+)?\s.*\s(\d+(?:\.\d+)?) insts/s$`)

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one run of one side: a bench/run.sh run's final JSON line, or the
// insts/s of each BenchmarkLoops sub-benchmark.
type run struct {
	Workload  string           `json:"workload"`
	Side      string           `json:"side"`
	Seed      int              `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type verdict struct {
	Workload string `json:"workload"`
	metric
	MedianRatio float64 `json:"median_ratio"` // change ÷ base, median over pairs
	Wins        int     `json:"wins"`
	BaseIQR     float64 `json:"base_iqr"` // IQR ÷ median of the base runs
	Verdict     string  `json:"verdict"`  // pass, fail or unresolved
}

type record struct {
	Base     string    `json:"base"`
	Failures []string  `json:"failures"`
	Verdicts []verdict `json:"verdicts"`
	// Claim is the verdict on the claimed metric, when one was named.
	Claim *verdict `json:"claim,omitempty"`
	Runs  []run    `json:"runs"`
}

func main() {
	claim := flag.String("claim", "", "`workload/metric` the change claims to improve (e.g. fleet-warm/cells_per_s)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [-claim workload/metric] BASE OUT")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	base, out := flag.Arg(0), flag.Arg(1)
	rec, err := compare(base, *claim)
	var raw []byte
	if err == nil {
		raw, err = json.MarshalIndent(rec, "", "  ")
	}
	if err == nil {
		err = benchio.WriteFileAtomic(out, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(2)
	}
	for _, v := range rec.Verdicts {
		fmt.Printf("%-14s %-12s change/base %.4f  wins %2d/%d  base IQR %.4f  bound %.2f  %s\n",
			v.Workload, v.Name, v.MedianRatio, v.Wins, pairs, v.BaseIQR, v.Bound, v.Verdict)
	}
	if v := rec.Claim; v != nil {
		fmt.Printf("claim %s/%s: change/base %.4f  wins %2d/%d  base IQR %.4f  %s\n",
			v.Workload, v.Name, v.MedianRatio, v.Wins, pairs, v.BaseIQR, v.Verdict)
	}
	for _, f := range rec.Failures {
		fmt.Println("FAIL:", f)
	}
	if len(rec.Failures) > 0 {
		os.Exit(1)
	}
}

// compare runs every pair with BASE exported to a temporary directory and
// the working tree as the change. Pair i runs the base first when i is even
// and the change first when it is odd; both sides use seed i+1. A non-empty
// claim (workload/metric) is checked against BENCHMARK.json before any run.
func compare(base, claim string) (*record, error) {
	var s struct {
		Command    []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metric `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &s)
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var claimW, claimM string
	if claim != "" {
		var ok bool
		claimW, claimM, ok = strings.Cut(claim, "/")
		known := slices.ContainsFunc(s.Workloads, func(w struct{ Name string }) bool { return w.Name == claimW })
		if !ok || !known || !slices.ContainsFunc(s.EndToEnd, func(m metric) bool { return m.Name == claimM }) {
			return nil, fmt.Errorf("claim %q: want <workload>/<end-to-end metric> from BENCHMARK.json", claim)
		}
	}
	dir, err := os.MkdirTemp("", "benchcompare-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, err := execIn(".", "bash", "-c", `set -o pipefail; git archive "$1" | tar -x -C "$2"`, "-", base, dir); err != nil {
		return nil, fmt.Errorf("exporting %s: %w", base, err)
	}
	rec := &record{Base: base}
	trees, names := [2]string{dir, "."}, [2]string{"base", "change"}
	for _, w := range append(s.Workloads, struct{ Name string }{loops}) {
		var sides [2][]run
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2
				fmt.Fprintf(os.Stderr, "benchcompare: %s pair %d/%d %s\n", w.Name, i+1, pairs, names[side])
				r := run{Workload: w.Name, Side: names[side], Seed: i + 1}
				if w.Name == loops {
					out, err := execIn(trees[side], "go", "test", "-run", "NONE", "-bench", "^"+loops+"$", "-benchtime", "60x", "./internal/nvp")
					r.Metrics = parseLoops(out)
					r.Correct = err == nil && len(r.Metrics) > 0
				} else {
					out, err := execIn(trees[side], s.Command[0], slices.Concat(s.Command[1:], []string{"--workload", w.Name,
						"--seed", strconv.Itoa(i + 1), "--seconds", strconv.Itoa(s.RunSeconds), "--trace", "0"})...)
					// A run with wrong output exits 1 but still ends with
					// its result, which says correct: false.
					if perr := parseRun(out, &r); perr != nil {
						return nil, fmt.Errorf("%s seed %d on %s: %w", w.Name, i+1, names[side], errors.Join(err, perr))
					}
				}
				sides[side] = append(sides[side], r)
			}
		}
		metrics := s.EndToEnd
		if w.Name == loops {
			metrics = nil
			for name := range sides[0][0].Metrics {
				metrics = append(metrics, metric{name, "higher", loopBound})
			}
			sort.Slice(metrics, func(i, j int) bool { return metrics[i].Name < metrics[j].Name })
		}
		vs, fs := judgeWorkload(metrics, sides)
		rec.Verdicts, rec.Failures = append(rec.Verdicts, vs...), append(rec.Failures, fs...)
		for _, v := range vs {
			if v.Workload == claimW && v.Name == claimM {
				c := judgeClaim(v)
				rec.Claim = &c
				if c.Verdict != "pass" {
					rec.Failures = append(rec.Failures, fmt.Sprintf("claim %s/%s: change/base %.4f with %d/%d wins, base IQR %.4f",
						v.Workload, v.Name, v.MedianRatio, v.Wins, pairs, v.BaseIQR))
				}
			}
		}
		rec.Runs = slices.Concat(rec.Runs, sides[0], sides[1])
	}
	return rec, nil
}

// execIn runs a command in dir and returns its standard output; the tail of
// its standard error goes into the error of a failed command.
func execIn(dir, name string, args ...string) ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, &stderr
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("%s: %w\n%s", name, err, stderr.Bytes()[max(0, stderr.Len()-2000):])
	}
	return out, err
}

// parseRun fills r from the final JSON line of a bench/run.sh run.
func parseRun(out []byte, r *run) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), r)
}

// parseLoops returns the insts/s of each BenchmarkLoops sub-benchmark in go
// test's output.
func parseLoops(out []byte) map[string]value {
	m := map[string]value{}
	for _, l := range loopLine.FindAllSubmatch(out, -1) {
		v, _ := strconv.ParseFloat(string(l[2]), 64)
		m[string(l[1])] = value{v, "insts/s"}
	}
	return m
}

// judgeWorkload gives each metric of one workload its verdict from runs
// paired by index, and lists every reason the change fails: a failing
// verdict, a run that was not correct, or a larger failed share.
func judgeWorkload(metrics []metric, sides [2][]run) (vs []verdict, failures []string) {
	var share [2]float64
	for i, rs := range sides {
		var failed, attempted int64
		for _, r := range rs {
			if !r.Correct {
				failures = append(failures, fmt.Sprintf("%s seed %d on %s: correct: false", r.Workload, r.Seed, r.Side))
			}
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
		share[i] = stats.Ratio(float64(failed), float64(attempted))
	}
	w := sides[0][0].Workload
	if share[1] > share[0] {
		failures = append(failures, fmt.Sprintf("%s: failed share %.4g, base %.4g", w, share[1], share[0]))
	}
	for _, m := range metrics {
		var vals [2][]float64
		for i, rs := range sides {
			for _, r := range rs {
				vals[i] = append(vals[i], r.Metrics[m.Name].Value)
			}
		}
		v := judge(m, vals[0], vals[1])
		v.Workload = w
		if v.Verdict == "fail" {
			failures = append(failures, fmt.Sprintf("%s %s: change/base %.4f, worse than the %.2f bound", w, m.Name, v.MedianRatio, m.Bound))
		}
		vs = append(vs, v)
	}
	return vs, failures
}

// judgeClaim turns a metric's verdict into the verdict on a claimed gain:
// pass only when the change won at least claimWins of the pairs and its
// median ratio is better than 1 by more than the base IQR/median.
func judgeClaim(v verdict) verdict {
	gain := v.MedianRatio - 1
	if v.Better == "lower" {
		gain = -gain
	}
	v.Verdict = "fail"
	if v.Wins >= claimWins && gain > v.BaseIQR {
		v.Verdict = "pass"
	}
	return v
}

// judge compares paired base and change values of one metric. It fails when
// the median per-pair ratio is worse than the bound. A pass is reported as
// unresolved when the base runs spread wider than the bound, unless every
// change run beats every base run.
func judge(m metric, base, change []float64) verdict {
	v := verdict{metric: m}
	worse := 1.0 // the sign of a regression
	worstChange, bestBase := stats.Max(change), stats.Min(base)
	if m.Better == "higher" {
		worse, worstChange, bestBase = -1, stats.Min(change), stats.Max(base)
	}
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = 1
		if change[i] != base[i] {
			ratios[i] = change[i] / base[i]
		}
		if worse*(change[i]-base[i]) < 0 {
			v.Wins++
		}
	}
	v.MedianRatio = stats.Median(ratios)
	sorted := slices.Clone(base)
	sort.Float64s(sorted)
	v.BaseIQR = stats.Ratio(sorted[3*len(sorted)/4]-sorted[len(sorted)/4], stats.Median(base))
	switch {
	case worse*(v.MedianRatio-1) > m.Bound:
		v.Verdict = "fail"
	case v.BaseIQR > m.Bound && worse*(worstChange-bestBase) >= 0:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "pass"
	}
	return v
}
