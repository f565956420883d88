package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ipex/internal/promtext"
	"ipex/internal/remote"
	"ipex/internal/trace"
)

// fixtureScrape builds a realistic /metrics body from the real registry
// renderer, so the test pins ipextop against what the endpoints emit.
func fixtureScrape(t *testing.T) string {
	t.Helper()
	reg := trace.NewRegistry()
	reg.Counter("ipexd.cache_hits").Add(6)
	reg.Gauge("ipexd.queue_depth").Set(3)
	h := reg.Histogram("ipexd.run_seconds", []float64{0.01, 0.1, 1})
	for i := 0; i < 8; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.5)
	h.Observe(0.5)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRenderHistogramQuantiles(t *testing.T) {
	exp, err := promtext.Parse(fixtureScrape(t))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	render(&b, "http://x", exp)
	out := b.String()

	// 8 of 10 observations land in the 0.1 bucket → p50 interpolates inside
	// (0.01, 0.1]; p95 and p99 inside (0.1, 1]. The mean is exactly 0.14s.
	for _, want := range []string{
		"ipexd_run_seconds", // span row, prefix-stripped
		"10",                // count
		"140.00ms",          // mean 1.4/10
		"ipex_ipexd_cache_hits  6",
		"ipex_ipexd_queue_depth  3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	bs := promtext.Buckets(exp.Family("ipex_ipexd_run_seconds"))
	if p50 := promtext.Quantile(0.5, bs); p50 < 0.01 || p50 > 0.1 {
		t.Errorf("p50 = %g, want inside (0.01, 0.1]", p50)
	}
	if p99 := promtext.Quantile(0.99, bs); p99 <= 0.1 || p99 > 1 {
		t.Errorf("p99 = %g, want inside (0.1, 1]", p99)
	}
}

// TestRenderServerTable renders the per-server table from the remote
// client's own /metrics writer, then from a scrape with one breaker open.
func TestRenderServerTable(t *testing.T) {
	rc, err := remote.NewClient(remote.Options{Servers: []string{"http://a:1", "http://b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	var live strings.Builder
	if err := rc.WriteProm(&live); err != nil {
		t.Fatal(err)
	}
	frame := func(scrape string) string {
		exp, err := promtext.Parse(scrape)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		render(&b, "http://x", exp)
		return b.String()
	}
	out := frame(live.String())
	for _, srv := range []string{"http://a:1", "http://b:2"} {
		if !rowHas(out, srv, "closed", "0", "-") {
			t.Errorf("fresh client: no closed, idle row for %s:\n%s", srv, out)
		}
	}

	scrape := `# TYPE ipex_remote_breaker_state gauge
ipex_remote_breaker_state{server="http://a:1"} 2
ipex_remote_breaker_state{server="http://b:2"} 0
# TYPE ipex_remote_server_attempts_total counter
ipex_remote_server_attempts_total{server="http://a:1"} 8
ipex_remote_server_attempts_total{server="http://b:2"} 40
# TYPE ipex_remote_server_failures_total counter
ipex_remote_server_failures_total{server="http://a:1"} 6
ipex_remote_server_failures_total{server="http://b:2"} 1
`
	out = frame(scrape)
	if !rowHas(out, "http://a:1", "open", "8", "6", "75.0") {
		t.Errorf("open server row wrong:\n%s", out)
	}
	if !rowHas(out, "http://b:2", "closed", "40", "1", "2.5") {
		t.Errorf("healthy server row wrong:\n%s", out)
	}
	if strings.Contains(frame(fixtureScrape(t)), "servers:") {
		t.Error("server table rendered for an endpoint without remote series")
	}
}

// rowHas reports whether the frame line naming key holds every field.
func rowHas(frame, key string, fields ...string) bool {
	for _, line := range strings.Split(frame, "\n") {
		if !strings.Contains(line, key) {
			continue
		}
		got := strings.Fields(line)
		for _, f := range fields {
			if !slices.Contains(got, f) {
				return false
			}
		}
		return true
	}
	return false
}

// TestPollEndToEnd scrapes a real HTTP server serving /metrics from the
// registry renderer.
func TestPollEndToEnd(t *testing.T) {
	scrape := fixtureScrape(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(scrape))
	}))
	defer srv.Close()

	exp, err := poll(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if f := exp.Family("ipex_ipexd_run_seconds"); f == nil || f.Type != "histogram" {
		t.Fatalf("scrape did not parse the histogram family: %+v", f)
	}
	if _, err := poll(srv.URL + "/nowhere"); err == nil {
		t.Error("poll accepted a 404 /metrics")
	}
}
