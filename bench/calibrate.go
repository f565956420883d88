package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// calibrate runs two sets of n untraced repetitions, each (workload,
// repetition) in a fresh child process, repetitions interleaved across
// workloads and seeded 1..n like the benchmark's acceptance runs. For every
// end-to-end metric it takes the spread of each set on each workload — the
// interquartile range over the median, quartiles as Python's
// statistics.quantiles computes them — and the drift between the two sets'
// medians, and rewrites the metric's bound in the spec as
// max(5%, 3 × spread, 2 × drift), capped at 25%. setup_s, whose spread is
// not gated, gets the cap.
func calibrate(cfg config, s *spec) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// vals[set][workload][metric]
	vals := [2]map[string]map[string][]float64{{}, {}}
	for set := range vals {
		for rep := 1; rep <= cfg.calibrate; rep++ {
			for _, w := range s.Workloads {
				res, err := runChild(exe, cfg, w.Name, rep, s.RunSeconds)
				if err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", set+1, w.Name, rep, err)
				}
				if vals[set][w.Name] == nil {
					vals[set][w.Name] = map[string][]float64{}
				}
				line := fmt.Sprintf("calibrate: set %d seed %d %s:", set+1, rep, w.Name)
				for _, ms := range s.EndToEnd {
					v := res.Metrics[ms.Name].Value
					vals[set][w.Name][ms.Name] = append(vals[set][w.Name][ms.Name], v)
					line += fmt.Sprintf(" %s=%.5g", ms.Name, v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}

	fmt.Printf("%-16s %-14s %12s %12s %8s %8s %8s\n", "metric", "workload", "median1", "median2", "spread1", "spread2", "drift")
	for i, ms := range s.EndToEnd {
		need := 0.05
		for _, w := range s.Workloads {
			a, b := vals[0][w.Name][ms.Name], vals[1][w.Name][ms.Name]
			m1, m2 := median(a), median(b)
			s1, s2 := spread(a), spread(b)
			drift := (m2 - m1) / m1
			if ms.Better == "higher" {
				drift = -drift
			}
			fmt.Printf("%-16s %-14s %12.5g %12.5g %8.4f %8.4f %8.4f\n", ms.Name, w.Name, m1, m2, s1, s2, drift)
			if s1 > 0.1 || s2 > 0.1 {
				fmt.Fprintf(os.Stderr, "calibrate: %s on %s spreads by more than a tenth; measure more work per run\n", ms.Name, w.Name)
			}
			need = math.Max(need, math.Max(3*math.Max(s1, s2), 2*drift))
		}
		bound := math.Min(math.Ceil(need*100)/100, 0.25)
		if ms.Name == "setup_s" {
			bound = 0.25
		}
		s.EndToEnd[i].Bound = &bound
	}
	return s.write(cfg.specPath)
}

// runChild runs one untraced repetition in a fresh process and parses the
// result line.
func runChild(exe string, cfg config, workload string, seed, secs int) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(secs), "--trace", "0", "--ipexd", cfg.ipexd,
		"--work", cfg.work, "--spec", cfg.specPath, "--digests", cfg.digests)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	if !r.Correct || r.Failed != 0 {
		return r, fmt.Errorf("run was not clean: correct=%v failed=%d", r.Correct, r.Failed)
	}
	return r, nil
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	return (q[2] - q[0]) / q[1]
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}
