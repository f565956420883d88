package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"ipex/internal/promtext"
)

var client = &http.Client{Timeout: 5 * time.Second}

// poll scrapes and parses base/metrics.
func poll(base string) (*promtext.Exposition, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	exp, err := promtext.Parse(string(body))
	if err != nil {
		return nil, fmt.Errorf("/metrics: %v", err)
	}
	return exp, nil
}

// gauge returns the value of an unlabelled sample, or NaN when absent.
func gauge(exp *promtext.Exposition, name string) float64 {
	f := exp.Family(name)
	if f == nil {
		return math.NaN()
	}
	for _, sm := range f.Samples {
		if sm.Name == name && len(sm.Labels) == 0 {
			return sm.Value
		}
	}
	return math.NaN()
}

// render writes one frame: a sweep header when the endpoint exports the
// ipex_sweep_* gauges, the per-server table when it farms cells to an ipexd
// fleet, latency quantiles for every exported histogram, and the remaining
// scalar series.
func render(w io.Writer, base string, exp *promtext.Exposition) {
	fmt.Fprintf(w, "ipextop — %s\n", base)

	if total := gauge(exp, "ipex_sweep_cells_total"); !math.IsNaN(total) {
		done := gauge(exp, "ipex_sweep_cells_done")
		pct := 0.0
		if total > 0 {
			pct = 100 * done / total
		}
		fmt.Fprintf(w, "sweep: %.0f/%.0f cells (%.1f%%)  %.1f cells/s  elapsed %s  eta %s\n",
			done, total, pct,
			gauge(exp, "ipex_sweep_cells_per_second"),
			fmtSeconds(gauge(exp, "ipex_sweep_elapsed_seconds")),
			fmtSeconds(gauge(exp, "ipex_sweep_eta_seconds")))
	}

	renderServers(w, exp)
	renderHistograms(w, exp)
	renderScalars(w, exp)
}

// breakerStates names ipex_remote_breaker_state's values.
var breakerStates = []string{"closed", "half-open", "open"}

// renderServers writes the per-server table of a sweep run with -servers:
// each ipexd's circuit-breaker state and the attempts and failures the
// remote client routed to it (the ipex_remote_* series).
func renderServers(w io.Writer, exp *promtext.Exposition) {
	states := exp.Family("ipex_remote_breaker_state")
	if states == nil || len(states.Samples) == 0 {
		return
	}
	perServer := func(name string) map[string]float64 {
		m := map[string]float64{}
		if f := exp.Family(name); f != nil {
			for _, sm := range f.Samples {
				m[sm.Labels["server"]] = sm.Value
			}
		}
		return m
	}
	attempts := perServer("ipex_remote_server_attempts_total")
	failures := perServer("ipex_remote_server_failures_total")
	fmt.Fprintln(w, "\nservers:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  SERVER\tBREAKER\tATTEMPTS\tFAILURES\tFAIL%\t")
	for _, sm := range states.Samples {
		srv := sm.Labels["server"]
		state := fmt.Sprintf("%g", sm.Value)
		if i := int(sm.Value); float64(i) == sm.Value && i >= 0 && i < len(breakerStates) {
			state = breakerStates[i]
		}
		a, f := attempts[srv], failures[srv]
		pct := "-"
		if a > 0 {
			pct = fmt.Sprintf("%.1f", 100*f/a)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.0f\t%.0f\t%s\t\n", srv, state, a, f, pct)
	}
	tw.Flush()
}

// renderHistograms writes one row per histogram family: observation count,
// mean, and interpolated p50/p95/p99.
func renderHistograms(w io.Writer, exp *promtext.Exposition) {
	var hs []*promtext.Family
	for _, f := range exp.Families {
		if f.Type == "histogram" {
			hs = append(hs, f)
		}
	}
	if len(hs) == 0 {
		return
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
	fmt.Fprintln(w, "\nlatency:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  SPAN\tCOUNT\tMEAN\tP50\tP95\tP99\t")
	for _, f := range hs {
		bs := promtext.Buckets(f)
		var count, sum float64
		for _, sm := range f.Samples {
			if len(sm.Labels) != 0 {
				continue
			}
			switch sm.Name {
			case f.Name + "_count":
				count = sm.Value
			case f.Name + "_sum":
				sum = sm.Value
			}
		}
		mean := math.NaN()
		if count > 0 {
			mean = sum / count
		}
		fmt.Fprintf(tw, "  %s\t%.0f\t%s\t%s\t%s\t%s\t\n",
			strings.TrimPrefix(f.Name, "ipex_"), count, fmtSeconds(mean),
			fmtSeconds(promtext.Quantile(0.50, bs)),
			fmtSeconds(promtext.Quantile(0.95, bs)),
			fmtSeconds(promtext.Quantile(0.99, bs)))
	}
	tw.Flush()
}

// renderScalars writes the remaining unlabelled counter/gauge samples —
// cache ratios, queue depths, supervision counters — skipping the sweep
// header gauges already shown and any labelled series (the server table
// covers those).
func renderScalars(w io.Writer, exp *promtext.Exposition) {
	type kv struct {
		name string
		val  float64
	}
	var rows []kv
	for _, f := range exp.Families {
		if f.Type == "histogram" || strings.HasPrefix(f.Name, "ipex_sweep_") {
			continue
		}
		for _, sm := range f.Samples {
			if len(sm.Labels) == 0 && sm.Name == f.Name {
				rows = append(rows, kv{sm.Name, sm.Value})
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintln(w, "\ncounters:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i := 0; i < len(rows); i += 2 {
		if i+1 < len(rows) {
			fmt.Fprintf(tw, "  %s\t%g\t  %s\t%g\t\n", rows[i].name, rows[i].val, rows[i+1].name, rows[i+1].val)
		} else {
			fmt.Fprintf(tw, "  %s\t%g\t\t\t\n", rows[i].name, rows[i].val)
		}
	}
	tw.Flush()
}

// fmtSeconds renders a duration-in-seconds with a unit fitted to its size
// (µs/ms/s/m), and "-" for NaN (empty histogram or absent gauge).
func fmtSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case s < 0.001:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.1fm", s/60)
	}
}
