package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/remote"
	"ipex/internal/resultstore"
	"ipex/internal/trace"
)

// newTestServer builds a full server (store, registry, supervisor, worker
// pool) behind an httptest listener. The returned server is the package
// struct, so tests can reach its queue and counters directly.
func newTestServer(t *testing.T, dir string, workers, queueDepth int) (*server, *httptest.Server) {
	t.Helper()
	return newSizedTestServer(t, dir, workers, queueDepth, 64, 64)
}

// newSizedTestServer is newTestServer with the store's memory tier and the
// body → key memo sized, as ipexd sizes both by -cache-entries.
func newSizedTestServer(t *testing.T, dir string, workers, queueDepth, cacheEntries, memoEntries int) (*server, *httptest.Server) {
	t.Helper()
	reg := trace.NewRegistry()
	store, err := resultstore.New(dir, cacheEntries, reg)
	if err != nil {
		t.Fatal(err)
	}
	sup := &harness.Supervisor{PropagatePanics: true}
	// A FakeClock (never advanced unless a test advances it) keeps latency
	// histograms present-but-deterministic in scrape assertions.
	s := newServer(store, reg, sup, &trace.FakeClock{}, remote.Limits{MaxScale: 1}, workers, queueDepth, memoEntries)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const smallRun = `{"app":"fft","scale":0.02}`

// TestMissThenHitByteIdentical pins the service's core guarantee end to end:
// the second identical request is a cache hit whose body is byte-for-byte
// the first (fresh) response, and a separate server simulating from scratch
// produces those same bytes — a hit stands in for a fresh simulation.
func TestMissThenHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), 2, 8)

	fresh := postRun(t, ts, smallRun)
	if fresh.StatusCode != http.StatusOK {
		t.Fatalf("fresh run: %s: %s", fresh.Status, readAll(t, fresh))
	}
	if c := fresh.Header.Get("X-Ipex-Cache"); c != "miss" {
		t.Fatalf("fresh run X-Ipex-Cache = %q, want miss", c)
	}
	key := fresh.Header.Get("X-Ipex-Key")
	if key == "" {
		t.Fatal("fresh run has no X-Ipex-Key")
	}
	freshBody := readAll(t, fresh)
	var res nvp.Result
	if err := json.Unmarshal(freshBody, &res); err != nil {
		t.Fatalf("response is not an nvp.Result: %v", err)
	}

	hit := postRun(t, ts, smallRun)
	if hit.StatusCode != http.StatusOK || hit.Header.Get("X-Ipex-Cache") != "hit" {
		t.Fatalf("repeat run: %s, X-Ipex-Cache=%q, want 200 hit", hit.Status, hit.Header.Get("X-Ipex-Cache"))
	}
	if hit.Header.Get("X-Ipex-Key") != key {
		t.Fatal("repeat run keyed differently")
	}
	if hitBody := readAll(t, hit); !bytes.Equal(hitBody, freshBody) {
		t.Fatal("cache hit is not byte-identical to the fresh response")
	}

	// An independent server (cold cache, own worker pool) must simulate to
	// the same bytes: the cache can only ever substitute, never drift.
	_, ts2 := newTestServer(t, t.TempDir(), 2, 8)
	fresh2 := postRun(t, ts2, smallRun)
	if fresh2.Header.Get("X-Ipex-Key") != key {
		t.Fatal("second server derived a different cell key for the same request")
	}
	if body2 := readAll(t, fresh2); !bytes.Equal(body2, freshBody) {
		t.Fatal("independent fresh simulation differs from the cached bytes")
	}

	// The probe endpoint serves the same bytes without simulating.
	probe, err := ts.Client().Get(ts.URL + "/v1/result/" + key)
	if err != nil {
		t.Fatal(err)
	}
	if probe.StatusCode != http.StatusOK {
		t.Fatalf("result probe: %s", probe.Status)
	}
	if probeBody := readAll(t, probe); !bytes.Equal(probeBody, freshBody) {
		t.Fatal("result probe differs from the fresh response")
	}
}

// TestBoundedStoreIsOnlyCache pins that the server's result store, and
// nothing behind it, remembers results: with one memory entry and no disk
// tier, A, B, A evicts A and its repeat simulates again. Keyed cells would
// let the supervisor's unbounded memo answer the repeat instead.
func TestBoundedStoreIsOnlyCache(t *testing.T) {
	s, ts := newSizedTestServer(t, "", 1, 8, 1, 1)
	for i, body := range []string{smallRun, `{"app":"qsort","scale":0.02}`, smallRun} {
		resp := postRun(t, ts, body)
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ipex-Cache") != "miss" {
			t.Fatalf("request %d: %s, X-Ipex-Cache=%q, want 200 miss", i, resp.Status, resp.Header.Get("X-Ipex-Cache"))
		}
	}
	if cs := s.sup.Counters.Snapshot(); cs.Executed != 3 || cs.Replayed != 0 {
		t.Fatalf("supervisor counters = %+v, want 3 executed, 0 replayed", cs)
	}
}

// TestSingleflightConcurrent proves N concurrent identical requests cost one
// simulation: the worker holds the leader's cell (via testRunHook) until all
// requests are in the handler, then everyone completes with the same body
// and the supervisor has executed exactly one cell.
func TestSingleflightConcurrent(t *testing.T) {
	const n = 6
	gate := make(chan struct{})
	testRunHook = func(string) { <-gate }
	t.Cleanup(func() { testRunHook = nil })

	s, ts := newTestServer(t, "", 2, 8)

	type reply struct {
		status  int
		outcome string
		body    []byte
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postRun(t, ts, smallRun)
			replies[i] = reply{resp.StatusCode, resp.Header.Get("X-Ipex-Cache"), readAll(t, resp)}
		}(i)
	}
	// Release the held cell only once every request is inside the handler,
	// so none of them can miss the in-flight window by arriving late.
	for s.inflight.Load() < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	misses := 0
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("request %d body differs", i)
		}
		switch r.outcome {
		case "miss":
			misses++
		case "coalesced", "hit":
			// Shared the leader's computation (or its just-published body).
		default:
			t.Fatalf("request %d: X-Ipex-Cache = %q", i, r.outcome)
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1 (the leader)", misses)
	}
	if ex := s.sup.Counters.Snapshot().Executed; ex != 1 {
		t.Fatalf("supervisor executed %d cells for %d identical requests, want 1", ex, n)
	}
}

// TestBackpressure429 pins the bounded-queue contract: with one worker held
// mid-cell and the single queue slot occupied, a third distinct request is
// refused with 429 + Retry-After instead of queueing unboundedly — and
// succeeds after the backlog drains.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan string, 8)
	testRunHook = func(app string) { entered <- app; <-gate }
	t.Cleanup(func() { testRunHook = nil })

	s, ts := newTestServer(t, "", 1, 1)

	// Three distinct cell keys over the same workload: the trace seed is
	// part of the identity.
	body := func(seed int) string {
		return `{"app":"fft","scale":0.02,"trace_seed":` + strconv.Itoa(seed) + `}`
	}

	type out struct {
		status int
		body   []byte
	}
	results := make(chan out, 2)
	post := func(seed int) {
		resp := postRun(t, ts, body(seed))
		results <- out{resp.StatusCode, readAll(t, resp)}
	}
	go post(1)
	<-entered // the only worker now holds request 1's cell
	go post(2)
	for len(s.queue) < 1 { // request 2 occupies the single queue slot
		time.Sleep(time.Millisecond)
	}

	refused := postRun(t, ts, body(3))
	if refused.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %s: %s", refused.Status, readAll(t, refused))
	}
	if ra := refused.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	readAll(t, refused)

	close(gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Fatalf("backlogged request: status %d: %s", r.status, r.body)
		}
	}
	<-entered // request 2's cell ran once the worker freed up

	// The refused request goes through untouched now.
	retried := postRun(t, ts, body(3))
	if retried.StatusCode != http.StatusOK || retried.Header.Get("X-Ipex-Cache") != "miss" {
		t.Fatalf("retry after backpressure: %s, X-Ipex-Cache=%q", retried.Status, retried.Header.Get("X-Ipex-Cache"))
	}
	readAll(t, retried)
}

// promValue extracts one sample value from Prometheus text exposition.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, text)
	return 0
}

// TestMetricsPartition pins the accounting invariant: every counted request
// lands in exactly one bucket, so requests = mem_hits + disk_hits +
// computed + coalesced + errors on the /metrics endpoint.
func TestMetricsPartition(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), 2, 8)

	fresh := postRun(t, ts, smallRun) // computed
	key := fresh.Header.Get("X-Ipex-Key")
	readAll(t, fresh)
	readAll(t, postRun(t, ts, smallRun)) // mem hit

	bad := postRun(t, ts, `{"app":"fft","no_such_knob":true}`) // error (400)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %s", bad.Status)
	}
	readAll(t, bad)

	missing, err := ts.Client().Get(ts.URL + "/v1/result/0000000000000000") // error (404)
	if err != nil {
		t.Fatal(err)
	}
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("uncached probe: %s", missing.Status)
	}
	readAll(t, missing)

	probe, err := ts.Client().Get(ts.URL + "/v1/result/" + key) // mem hit
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, probe)

	metrics, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readAll(t, metrics))

	requests := promValue(t, text, "ipex_ipexd_requests")
	sum := promValue(t, text, "ipex_store_mem_hits") +
		promValue(t, text, "ipex_store_disk_hits") +
		promValue(t, text, "ipex_store_computed") +
		promValue(t, text, "ipex_store_coalesced") +
		promValue(t, text, "ipex_ipexd_errors")
	if requests != 5 {
		t.Fatalf("ipex_ipexd_requests = %g, want 5", requests)
	}
	if requests != sum {
		t.Fatalf("partition broken: requests=%g but hit+miss+coalesced+errors=%g\n%s", requests, sum, text)
	}
	if got := promValue(t, text, "ipex_ipexd_cells_executed"); got != 1 {
		t.Fatalf("cells_executed = %g, want 1", got)
	}
}

// TestBadRequests pins the client-error surface: unknown fields, unknown
// apps, bad scales, bad modes, and out-of-range IPEX tunables or fault
// schedules are all 400s (never simulated, never cached). A threshold list
// past core.MaxThresholds is refused whatever the ipex mode, and checkpoint
// retry/rollback bounds past the fault caps are refused before they can pin
// a worker in one outage's checkpoint walk.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, "", 1, 2)
	for name, body := range map[string]string{
		"unknown-field":        `{"app":"fft","turbo":true}`,
		"missing-app":          `{"scale":0.02}`,
		"unknown-app":          `{"app":"doom"}`,
		"bad-scale":            `{"app":"fft","scale":-1}`,
		"over-scale":           `{"app":"fft","scale":50}`,
		"bad-source":           `{"app":"fft","source":"mains"}`,
		"bad-ipex":             `{"app":"fft","config":{"ipex":"sideways"}}`,
		"bad-nvm":              `{"app":"fft","config":{"nvm":"DRAM"}}`,
		"bad-prefetch":         `{"app":"fft","config":{"dprefetch":"psychic"}}`,
		"too-many-thresholds":  `{"app":"fft","config":{"thresholds":[3.39,3.38,3.37,3.36,3.35,3.34,3.33,3.32,3.31]}}`,
		"ascending-thresholds": `{"app":"fft","config":{"thresholds":[3.25,3.3]}}`,
		"bad-fault-prob":       `{"app":"fft","config":{"faults":{"checkpoint":{"write_fail_prob":1.5}}}}`,
		"unknown-fault-field":  `{"app":"fft","config":{"faults":{"sensor":{"gremlins":1}}}}`,
		"huge-ckpt-bounds":     `{"app":"fft","config":{"faults":{"checkpoint":{"write_fail_prob":1,"max_retries":2147483647,"max_rollbacks":2147483647}}}}`,
		"not-json":             `not even json`,
		"trailing-request":     `{"app":"fft","scale":0.02}{"app":"qsort","scale":0.02}`,
		"trailing-junk":        `{"app":"fft","scale":0.02} x`,
		"oversize":             `{"app":"fft","scale":0.02}` + strings.Repeat(" ", remote.MaxRequestBody),
	} {
		resp := postRun(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %s, want 400 (%s)", name, resp.Status, readAll(t, resp))
			continue
		}
		readAll(t, resp)
	}
	// Wrong methods.
	resp, err := ts.Client().Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: %s, want 405", resp.Status)
	}
	readAll(t, resp)
	resp = postRun(t, ts, "") // to /v1/run is fine; POST to result is not
	readAll(t, resp)
	resp2, err := ts.Client().Post(ts.URL+"/v1/result/abc", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/result: %s, want 405", resp2.Status)
	}
	readAll(t, resp2)
}

// TestDrainRefusal pins the shutdown path: once the pool is closed, a new
// simulation is refused as 503 (draining) rather than deadlocking, and
// close() is idempotent.
func TestDrainRefusal(t *testing.T) {
	s, ts := newTestServer(t, "", 1, 2)
	s.close()
	resp := postRun(t, ts, smallRun)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run after drain: %s, want 503", resp.Status)
	}
	readAll(t, resp)
	s.close() // second close must be a no-op, not a double-close panic
}

// TestConfigAffectsKey pins that distinct configurations produce distinct
// cells end to end: an IPEX run and a baseline run must not share a key (or
// a cached body).
func TestConfigAffectsKey(t *testing.T) {
	_, ts := newTestServer(t, "", 2, 8)
	base := postRun(t, ts, smallRun)
	ipex := postRun(t, ts, `{"app":"fft","scale":0.02,"config":{"ipex":"both"}}`)
	if base.StatusCode != http.StatusOK || ipex.StatusCode != http.StatusOK {
		t.Fatalf("runs failed: %s / %s", base.Status, ipex.Status)
	}
	if base.Header.Get("X-Ipex-Key") == ipex.Header.Get("X-Ipex-Key") {
		t.Fatal("baseline and IPEX configurations share a cell key")
	}
	if ipex.Header.Get("X-Ipex-Cache") != "miss" {
		t.Fatal("distinct configuration was served from cache")
	}
	readAll(t, base)
	readAll(t, ipex)
}

// TestRetryAfterJitter pins the 429 backoff contract: the Retry-After delay
// is deterministic per key (same request, same answer — replayable), stays
// inside [1,4] seconds, and spreads across keys so refused clients do not
// stampede back in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	distinct := map[string]bool{}
	for i := 0; i < 64; i++ {
		key := harness.Key(i)
		ra := retryAfterSecs(key)
		if got := retryAfterSecs(key); got != ra {
			t.Fatalf("retryAfterSecs(%q) flapped: %s then %s", key, ra, got)
		}
		n, err := strconv.Atoi(ra)
		if err != nil || n < 1 || n > 4 {
			t.Fatalf("retryAfterSecs(%q) = %q, want an integer in [1,4]", key, ra)
		}
		distinct[ra] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("64 keys produced %d distinct delays; jitter is not jittering", len(distinct))
	}
}
