package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// spec mirrors BENCHMARK.json, the single list of workloads and metric
// names and units: the benchmark emits exactly the metrics it names, and
// calibration rewrites its end-to-end bounds.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one metric. Bound is set on end-to-end metrics only.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// write rewrites the spec with one workload or metric per line.
func (s *spec) write(path string) error {
	var buf bytes.Buffer
	compact := func(v any) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(v) // plain structs of strings and numbers always encode
		return strings.TrimSuffix(b.String(), "\n")
	}
	list := func(key string, n int, item func(int) any, last bool) {
		fmt.Fprintf(&buf, "  %q: [\n", key)
		for i := 0; i < n; i++ {
			sep := ","
			if i == n-1 {
				sep = ""
			}
			fmt.Fprintf(&buf, "    %s%s\n", compact(item(i)), sep)
		}
		if last {
			buf.WriteString("  ]\n")
		} else {
			buf.WriteString("  ],\n")
		}
	}
	buf.WriteString("{\n")
	fmt.Fprintf(&buf, "  \"command\": %s,\n  \"paths\": %s,\n  \"run_seconds\": %d,\n",
		compact(s.Command), compact(s.Paths), s.RunSeconds)
	list("workloads", len(s.Workloads), func(i int) any { return s.Workloads[i] }, false)
	list("end_to_end", len(s.EndToEnd), func(i int) any { return s.EndToEnd[i] }, false)
	list("per_layer", len(s.PerLayer), func(i int) any { return s.PerLayer[i] }, true)
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
