package main

import (
	"slices"
	"strings"
	"testing"
)

// scaled returns xs with every value multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	// A tight base: IQR/median 0.02, well inside every bound below.
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	// A base whose IQR/median (about 0.9) exceeds the 0.25 bound.
	wide := []float64{40, 160, 45, 155, 50, 150, 55, 145, 60, 140}
	higher := metric{Name: "cells_per_s", Better: "higher", Bound: 0.25}
	lower := metric{Name: "p99_ms", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		name         string
		m            metric
		base, change []float64
		want         string
		wantWins     int
	}{
		{"higher inside bound", higher, tight, scaled(tight, 0.8), "pass", 0},
		{"higher beyond bound", higher, tight, scaled(tight, 0.7), "fail", 0},
		{"higher better", higher, tight, scaled(tight, 1.1), "pass", 10},
		{"lower inside bound", lower, tight, scaled(tight, 1.2), "pass", 0},
		{"lower beyond bound", lower, tight, scaled(tight, 1.3), "fail", 0},
		{"lower better", lower, tight, scaled(tight, 0.5), "pass", 10},
		{"wide base unresolved", higher, wide, scaled(wide, 1.05), "unresolved", 10},
		{"wide base, every change run wins", higher, wide, scaled(wide, 1.0/0.24), "pass", 10},
		{"wide base, lower, every change run wins", lower, wide, scaled(wide, 0.24), "pass", 10},
		{"wide base beyond bound still fails", lower, wide, scaled(wide, 1.3), "fail", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(tc.m, tc.base, tc.change)
			if v.Verdict != tc.want || v.Wins != tc.wantWins {
				t.Errorf("verdict %s with %d wins (median ratio %.4f, base IQR %.4f), want %s with %d wins",
					v.Verdict, v.Wins, v.MedianRatio, v.BaseIQR, tc.want, tc.wantWins)
			}
		})
	}
}

func TestJudgeWorkloadFailures(t *testing.T) {
	mk := func(side string, seed int, correct bool, failed int64) run {
		return run{Workload: "serve-mixed", Side: side, Seed: seed, Correct: correct, Attempted: 100, Failed: failed,
			Metrics: map[string]value{"p99_ms": {Value: 10, Unit: "ms"}}}
	}
	m := []metric{{Name: "p99_ms", Better: "lower", Bound: 0.25}}
	for _, tc := range []struct {
		name   string
		change [2]run
		want   string
	}{
		{"clean", [2]run{mk("change", 1, true, 1), mk("change", 2, true, 0)}, ""},
		{"larger failed share", [2]run{mk("change", 1, true, 2), mk("change", 2, true, 0)}, "serve-mixed: failed share 0.01, base 0.005"},
		{"wrong output", [2]run{mk("change", 1, true, 0), mk("change", 2, false, 0)}, "serve-mixed seed 2 on change: correct: false"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := []run{mk("base", 1, true, 0), mk("base", 2, true, 1)}
			vs, failures := judgeWorkload(m, [2][]run{base, tc.change[:]})
			if len(vs) != 1 || vs[0].Verdict != "pass" {
				t.Errorf("verdicts %+v, want one pass", vs)
			}
			if got := strings.Join(failures, "; "); got != tc.want {
				t.Errorf("failures %q, want %q", got, tc.want)
			}
		})
	}
}

func TestParseRun(t *testing.T) {
	out := `env {"cpu":"Intel(R) Xeon(R) Processor","nproc":2,"seed":3,"workload":"sweep-checked"}
output_digest e8666f8af334dbfd
setup_s                                    0.072121 s
cells_per_s                              440.993448 cells/s
{"correct":true,"attempted":9360,"failed":2,"metrics":{"cells_per_s":{"value":440.99344849270324,"unit":"cells/s"},"setup_s":{"value":0.072120984,"unit":"s"}}}
`
	res := run{Workload: "sweep-checked", Side: "base", Seed: 3}
	if err := parseRun([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "sweep-checked" || res.Seed != 3 || !res.Correct || res.Attempted != 9360 || res.Failed != 2 ||
		res.Metrics["cells_per_s"] != (value{440.99344849270324, "cells/s"}) || len(res.Metrics) != 2 {
		t.Errorf("parsed %+v", res)
	}
	if err := parseRun([]byte("go: build failed\n"), &run{}); err == nil {
		t.Error("a run without a JSON line parsed")
	}
}

func TestParseLoops(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: ipex/internal/nvp
cpu: Intel(R) Xeon(R) Processor
BenchmarkLoops/default-2         	      60	  24480977 ns/op	  11449133 insts/s
BenchmarkLoops/ipex-both-2       	      60	  30709542 ns/op	   9128163 insts/s
BenchmarkLoops/no-prefetch-2  60  14567221 ns/op  19221237 insts/s
BenchmarkLoops/paranoid          	      60	  23518003 ns/op	  11919272.5 insts/s
PASS
ok  	ipex/internal/nvp	6.123s
`
	got := parseLoops([]byte(out))
	want := map[string]float64{"default": 11449133, "ipex-both": 9128163, "no-prefetch": 19221237, "paranoid": 11919272.5}
	if len(got) != len(want) {
		t.Fatalf("parsed %+v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != (value{v, "insts/s"}) {
			t.Errorf("%s: %+v, want %v insts/s", name, got[name], v)
		}
	}
	if got := parseLoops([]byte("FAIL\tipex/internal/nvp\n")); len(got) != 0 {
		t.Errorf("output without BenchmarkLoops lines parsed as %v", got)
	}
}

func TestJudgeClaim(t *testing.T) {
	// A tight base: IQR/median 0.02.
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	higher := metric{Name: "cells_per_s", Better: "higher", Bound: 0.25}
	lower := metric{Name: "p50_ms", Better: "lower", Bound: 0.25}
	// Nine clear wins and one loss.
	nineWins := scaled(tight, 1.3)
	nineWins[4] = tight[4] * 0.99
	// Eight clear wins and two losses.
	eightWins := slices.Clone(nineWins)
	eightWins[7] = tight[7] * 0.99
	for _, tc := range []struct {
		name         string
		m            metric
		base, change []float64
		want         string
	}{
		{"every pair wins by 30%", higher, tight, scaled(tight, 1.3), "pass"},
		{"nine of ten pairs win", higher, tight, nineWins, "pass"},
		{"eight of ten pairs win", higher, tight, eightWins, "fail"},
		{"every pair wins inside the base IQR", higher, tight, scaled(tight, 1.01), "fail"},
		{"no change", higher, tight, tight, "fail"},
		{"lower is better and every pair wins", lower, tight, scaled(tight, 0.7), "pass"},
		{"lower is better but the change is slower", lower, tight, scaled(tight, 1.3), "fail"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judgeClaim(judge(tc.m, tc.base, tc.change))
			if v.Verdict != tc.want {
				t.Errorf("claim verdict %s with %d wins (median ratio %.4f, base IQR %.4f), want %s",
					v.Verdict, v.Wins, v.MedianRatio, v.BaseIQR, tc.want)
			}
		})
	}
}
