package remote

// The client tests drive RunRemote against httptest fakes. The determinism
// lint's net/http rule carves out internal/remote as a whole (the production
// client is the repo's one sanctioned HTTP corner), so httptest is fine
// here. Sleeps go through the sleepFn seam — no test actually waits out a
// backoff schedule.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipex/internal/trace"
)

// testKey is an arbitrary cell key; routing only needs it to be non-empty
// and stable.
const testKey = "deadbeefdeadbeefdeadbeefdeadbeef"

// testBody is a valid, strictly-decodable nvp.Result body.
const testBody = `{"App":"fft","Cycles":123,"Completed":true}`

// serveVerified writes body under the full response envelope: key header,
// sha256 header, then the bytes.
func serveVerified(w http.ResponseWriter, key, body string) {
	sum := sha256.Sum256([]byte(body))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ipex-Key", key)
	w.Header().Set("X-Ipex-Sha256", hex.EncodeToString(sum[:]))
	fmt.Fprint(w, body)
}

// newTestClient builds a client over the given servers with sleeps recorded
// instead of slept.
func newTestClient(t *testing.T, o Options) (*Client, *[]time.Duration) {
	t.Helper()
	c, err := NewClient(o)
	if err != nil {
		t.Fatal(err)
	}
	slept := &[]time.Duration{}
	c.sleepFn = func(_ context.Context, d time.Duration) { *slept = append(*slept, d) }
	return c, slept
}

// checkPartition asserts the attempt-outcome invariant: every attempt lands
// in exactly one bucket.
func checkPartition(t *testing.T, s Snapshot) {
	t.Helper()
	if got := s.OK + s.StatusErrors + s.NetErrors + s.VerifyErrors + s.Cancelled; got != s.Attempts {
		t.Fatalf("attempt buckets do not partition: ok+status+net+verify+cancelled = %d, attempts = %d (%+v)",
			got, s.Attempts, s)
	}
}

func TestRunRemoteSuccess(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		serveVerified(w, testKey, testBody)
	}))
	defer ts.Close()

	c, slept := newTestClient(t, Options{Servers: []string{ts.URL}})
	res, handled, err := c.RunRemote(testKey, "fft/0.1", []byte(`{"app":"fft"}`))
	if err != nil || !handled {
		t.Fatalf("RunRemote = handled %v, err %v; want handled, nil", handled, err)
	}
	if res.App != "fft" || res.Cycles != 123 || !res.Completed {
		t.Fatalf("decoded result = %+v, want the served body", res)
	}
	if len(*slept) != 0 {
		t.Fatalf("success slept %v, want no backoff", *slept)
	}
	s := c.Snapshot()
	if s.Attempts != 1 || s.OK != 1 || s.CellsRemote != 1 {
		t.Fatalf("snapshot = %+v, want exactly one ok attempt and one remote cell", s)
	}
	checkPartition(t, s)
}

func TestRetryAfterHonoredAndCapped(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
		case 2:
			w.Header().Set("Retry-After", "600")
			http.Error(w, "still busy", http.StatusTooManyRequests)
		default:
			serveVerified(w, testKey, testBody)
		}
	}))
	defer ts.Close()

	c, slept := newTestClient(t, Options{Servers: []string{ts.URL}, Retries: 3})
	_, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`))
	if err != nil || !handled {
		t.Fatalf("RunRemote = handled %v, err %v", handled, err)
	}
	// Round 2 honors the 1s hint verbatim; round 3 caps 600s at the default
	// 2s RetryAfterCap.
	want := []time.Duration{1 * time.Second, 2 * time.Second}
	if len(*slept) != 2 || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("backoff sleeps = %v, want %v", *slept, want)
	}
	s := c.Snapshot()
	if s.RetryAfterHonored != 2 || s.Retries != 2 || s.StatusErrors != 2 || s.OK != 1 {
		t.Fatalf("snapshot = %+v, want 2 honored hints, 2 retries, 2 status errors, 1 ok", s)
	}
	checkPartition(t, s)
	// 429 is breaker-neutral backpressure: the breaker must still be closed.
	if got := c.servers[0].br.current(); got != breakerClosed {
		t.Fatalf("breaker after 429s = %v, want closed", got)
	}
}

func TestBackoffScheduleDeterministic(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	run := func() []time.Duration {
		// A high threshold keeps the breaker closed for the whole budget so
		// every round actually routes and backs off.
		c, slept := newTestClient(t, Options{Servers: []string{ts.URL}, Retries: 3, FailThreshold: 100})
		if _, handled, _ := c.RunRemote(testKey, "cell", []byte(`{}`)); handled {
			t.Fatal("persistent 500s should degrade to local execution")
		}
		s := c.Snapshot()
		if s.CellsLocalFallback != 1 || s.StatusErrors != 4 {
			t.Fatalf("snapshot = %+v, want 1 fallback cell over 4 status errors", s)
		}
		checkPartition(t, s)
		return *slept
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("3 retries slept %d times, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff schedule not deterministic: %v vs %v", a, b)
		}
		base := 50 * time.Millisecond << i
		if a[i] < base || a[i] > base+base/2 {
			t.Fatalf("round %d backoff %v outside [%v, %v]", i+1, a[i], base, base+base/2)
		}
	}
}

func TestHedgeBackupWins(t *testing.T) {
	var aStall, bStall atomic.Bool
	stallable := func(stall *atomic.Bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if stall.Load() {
				// Drain the body so the server's background read can detect
				// the client disconnect, then hold until the hedge race
				// cancels us.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			serveVerified(w, testKey, testBody)
		}
	}
	a := httptest.NewServer(stallable(&aStall))
	defer a.Close()
	b := httptest.NewServer(stallable(&bStall))
	defer b.Close()

	c, _ := newTestClient(t, Options{
		Servers:    []string{a.URL, b.URL},
		HedgeAfter: 20 * time.Millisecond,
	})
	// Stall whichever server rendezvous ranks primary for this key, so the
	// delayed hedge on the backup must win the race.
	if c.rank(testKey)[0].url == a.URL {
		aStall.Store(true)
	} else {
		bStall.Store(true)
	}
	res, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`))
	if err != nil || !handled || res.Cycles != 123 {
		t.Fatalf("hedged RunRemote = %+v handled %v err %v", res, handled, err)
	}
	s := c.Snapshot()
	if s.Hedges != 1 || s.HedgeWins != 1 || s.CellsRemote != 1 {
		t.Fatalf("snapshot = %+v, want one winning hedge", s)
	}
	// The cancelled primary concludes asynchronously after the winner
	// returns; wait for its bucket before checking the partition.
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled primary never concluded as cancelled: %+v", c.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	checkPartition(t, c.Snapshot())
	// A hedge-race cancellation says nothing about server health.
	for _, sv := range c.servers {
		if got := sv.br.current(); got != breakerClosed {
			t.Fatalf("breaker on %s = %v after hedge race, want closed", sv.url, got)
		}
	}
}

// forceHalfOpen drives a breaker to half-open with its trial slot free —
// the state a recovering server is in when route() considers it.
func forceHalfOpen(br *breaker) {
	for !br.report(false, false) {
	}
	for br.admit() != admitProbeFirst {
	}
	br.probeResult(true)
	br.release(true)
}

func TestUnlaunchedHedgeBackupReleasesTrial(t *testing.T) {
	// Fast primary, half-open backup, hedge timer far in the future: route()
	// claims the backup's single trial slot, but the primary answers before
	// the hedge fires so the backup never launches. Its slot must be
	// released, or the backup's breaker would refuse every future admission
	// and the recovering server would be permanently out of rotation.
	mk := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			serveVerified(w, testKey, testBody)
		}))
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()

	c, _ := newTestClient(t, Options{Servers: []string{a.URL, b.URL}, HedgeAfter: time.Hour})
	backup := c.rank(testKey)[1]
	forceHalfOpen(backup.br)

	if _, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`)); !handled || err != nil {
		t.Fatalf("RunRemote: handled %v err %v", handled, err)
	}
	if got := backup.br.admit(); got != admitTrial {
		t.Fatalf("backup breaker admission after unlaunched hedge = %v, want admitTrial (slot released)", got)
	}
	s := c.Snapshot()
	if s.Hedges != 0 || s.Attempts != 1 || s.CellsRemote != 1 {
		t.Fatalf("snapshot = %+v, want a single unhedged attempt", s)
	}
	checkPartition(t, s)
}

func TestNoHedgeSelectsNoBackup(t *testing.T) {
	// With hedging disabled a backup can never launch, so route() must not
	// admit one at all — admitting would claim breaker state (here: the
	// half-open trial slot) for a request that never happens.
	mk := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			serveVerified(w, testKey, testBody)
		}))
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()

	c, _ := newTestClient(t, Options{Servers: []string{a.URL, b.URL}})
	second := c.rank(testKey)[1]
	forceHalfOpen(second.br)

	if _, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`)); !handled || err != nil {
		t.Fatalf("RunRemote: handled %v err %v", handled, err)
	}
	if got := second.br.admit(); got != admitTrial {
		t.Fatalf("second server's breaker after unhedged cell = %v, want its trial slot untouched", got)
	}
	s := c.Snapshot()
	if s.Attempts != 1 {
		t.Fatalf("snapshot = %+v, want the primary attempted alone", s)
	}
	checkPartition(t, s)
}

func TestRetryAfterScopedToSender(t *testing.T) {
	// The primary answers 503 with a Retry-After and opens its breaker
	// (threshold 1); the next round routes to the other server, which never
	// asked for backpressure — the hint must not delay that attempt.
	var aIsPrimary atomic.Bool
	mk := func(isA bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if aIsPrimary.Load() == isA {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "maintenance", http.StatusServiceUnavailable)
				return
			}
			serveVerified(w, testKey, testBody)
		}))
	}
	a, b := mk(true), mk(false)
	defer a.Close()
	defer b.Close()

	c, slept := newTestClient(t, Options{Servers: []string{a.URL, b.URL}, Retries: 2, FailThreshold: 1})
	aIsPrimary.Store(c.rank(testKey)[0].url == a.URL)

	res, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`))
	if err != nil || !handled || res.Cycles != 123 {
		t.Fatalf("RunRemote = %+v handled %v err %v", res, handled, err)
	}
	// Round 2's backoff is the jittered exponential base, not the stale 1s
	// hint from the server that dropped out of routing.
	base := 50 * time.Millisecond
	if len(*slept) != 1 || (*slept)[0] < base || (*slept)[0] > base+base/2 {
		t.Fatalf("backoff sleeps = %v, want one exponential-schedule sleep in [%v, %v]", *slept, base, base+base/2)
	}
	s := c.Snapshot()
	if s.RetryAfterHonored != 0 || s.BreakerOpens != 1 || s.CellsRemote != 1 {
		t.Fatalf("snapshot = %+v, want the hint dropped with the sender's breaker open", s)
	}
	checkPartition(t, s)
}

func TestBaseContextCancelDegrades(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serveVerified(w, testKey, testBody)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, slept := newTestClient(t, Options{Servers: []string{ts.URL}, Retries: 3, BaseContext: ctx})
	if _, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`)); handled || err != nil {
		t.Fatalf("cancelled base context must degrade to local: handled %v err %v", handled, err)
	}
	s := c.Snapshot()
	if s.Attempts != 0 || s.CellsUnroutable != 1 {
		t.Fatalf("snapshot = %+v, want no attempts spent after shutdown", s)
	}
	if len(*slept) != 0 {
		t.Fatalf("slept %v after shutdown, want nothing", *slept)
	}
	checkPartition(t, s)
}

func TestVerifyFailures(t *testing.T) {
	sumOf := func(body string) string {
		sum := sha256.Sum256([]byte(body))
		return hex.EncodeToString(sum[:])
	}
	cases := []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"wrong-key", func(w http.ResponseWriter, _ *http.Request) {
			serveVerified(w, "someoneelseskey", testBody)
		}},
		{"wrong-sha256", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("X-Ipex-Key", testKey)
			w.Header().Set("X-Ipex-Sha256", sumOf("different bytes"))
			fmt.Fprint(w, testBody)
		}},
		{"missing-envelope", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, testBody)
		}},
		{"garbage-json", func(w http.ResponseWriter, _ *http.Request) {
			serveVerified(w, testKey, `{"App": not-json`)
		}},
		{"unknown-field", func(w http.ResponseWriter, _ *http.Request) {
			serveVerified(w, testKey, `{"App":"fft","Bogus":1}`)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, Retries: 1, FailThreshold: 100})
			if _, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`)); handled || err != nil {
				t.Fatalf("unverifiable responses must degrade to local: handled %v err %v", handled, err)
			}
			s := c.Snapshot()
			if s.VerifyErrors != 2 || s.CellsLocalFallback != 1 {
				t.Fatalf("snapshot = %+v, want 2 verify errors then local fallback", s)
			}
			checkPartition(t, s)
		})
	}
}

func TestAllServersDownFallsBack(t *testing.T) {
	// A listener that is closed immediately: connection refused, reliably.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	c, _ := newTestClient(t, Options{Servers: []string{url}, Retries: 2, FailThreshold: 100})
	if _, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`)); handled || err != nil {
		t.Fatalf("dead fleet must degrade to local: handled %v err %v", handled, err)
	}
	s := c.Snapshot()
	if s.NetErrors != 3 || s.CellsLocalFallback != 1 {
		t.Fatalf("snapshot = %+v, want 3 net errors then local fallback", s)
	}
	checkPartition(t, s)
}

func TestBreakerOpensThenUnroutable(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	// Threshold 1: the first net error opens the only server's breaker.
	c, _ := newTestClient(t, Options{Servers: []string{url}, Retries: 0, FailThreshold: 1, Cooldown: 8})
	if _, handled, _ := c.RunRemote(testKey, "a", []byte(`{}`)); handled {
		t.Fatal("first cell should fall back after its net error")
	}
	s := c.Snapshot()
	if s.BreakerOpens != 1 || s.CellsLocalFallback != 1 {
		t.Fatalf("snapshot = %+v, want the breaker opened on the first cell", s)
	}
	// Second cell: the breaker refuses admission, so no attempt is even
	// made — the cell is unroutable and runs locally.
	if _, handled, _ := c.RunRemote(testKey, "b", []byte(`{}`)); handled {
		t.Fatal("unroutable cell should fall back")
	}
	s = c.Snapshot()
	if s.CellsUnroutable != 1 || s.Attempts != 1 {
		t.Fatalf("snapshot = %+v, want 1 unroutable cell and no new attempts", s)
	}
	checkPartition(t, s)
}

func TestProbeGatesReentry(t *testing.T) {
	var healthy atomic.Bool
	var probes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
			if healthy.Load() {
				fmt.Fprintln(w, "ok")
			} else {
				http.Error(w, "draining", http.StatusServiceUnavailable)
			}
			return
		}
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		serveVerified(w, testKey, testBody)
	}))
	defer ts.Close()

	// Threshold 1 opens on the first failure; cooldown 1 means the very next
	// admission asks for a health probe.
	c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, Retries: 0, FailThreshold: 1, Cooldown: 1})
	if _, handled, _ := c.RunRemote(testKey, "a", []byte(`{}`)); handled {
		t.Fatal("failing server should fall back")
	}
	// Unhealthy probe: refused, still unroutable.
	if _, handled, _ := c.RunRemote(testKey, "b", []byte(`{}`)); handled {
		t.Fatal("unhealthy probe must not re-admit the server")
	}
	s := c.Snapshot()
	if s.Probes != 1 || s.ProbeFailures != 1 || s.CellsUnroutable != 1 {
		t.Fatalf("snapshot = %+v, want one failed probe and an unroutable cell", s)
	}
	// Server recovers: the next probe passes, the half-open trial succeeds,
	// and the breaker closes.
	healthy.Store(true)
	res, handled, err := c.RunRemote(testKey, "c", []byte(`{}`))
	if err != nil || !handled || res.Cycles != 123 {
		t.Fatalf("recovered server: res %+v handled %v err %v", res, handled, err)
	}
	if got := c.servers[0].br.current(); got != breakerClosed {
		t.Fatalf("breaker after verified trial = %v, want closed", got)
	}
	s = c.Snapshot()
	if s.Probes != 2 || s.CellsRemote != 1 {
		t.Fatalf("snapshot = %+v, want a second, passing probe and a remote cell", s)
	}
	checkPartition(t, s)
}

func TestNoLocalFallbackFailsCell(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	c, _ := newTestClient(t, Options{Servers: []string{url}, Retries: 1, FailThreshold: 100, NoLocalFallback: true})
	_, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`))
	if !handled || err == nil {
		t.Fatalf("with -no-local-fallback the cell must hard-fail: handled %v err %v", handled, err)
	}
	if !strings.Contains(err.Error(), "local fallback disabled") {
		t.Fatalf("error does not explain the failure mode: %v", err)
	}
	s := c.Snapshot()
	if s.CellsFailed != 1 || s.CellsLocalFallback != 0 {
		t.Fatalf("snapshot = %+v, want one failed cell and no fallback", s)
	}
	checkPartition(t, s)
}

func TestRendezvousRoutingStable(t *testing.T) {
	c, _ := newTestClient(t, Options{Servers: []string{
		"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3",
	}})
	// Same key, same order, always.
	a := c.rank("cell-key-1")
	b := c.rank("cell-key-1")
	for i := range a {
		if a[i].url != b[i].url {
			t.Fatal("rendezvous rank not stable for a fixed key")
		}
	}
	// Different keys spread across primaries (with 3 servers and a handful
	// of keys, at least two distinct primaries is effectively certain).
	primaries := map[string]bool{}
	for i := 0; i < 16; i++ {
		primaries[c.rank(fmt.Sprintf("cell-key-%d", i))[0].url] = true
	}
	if len(primaries) < 2 {
		t.Fatalf("16 keys all ranked the same primary: %v", primaries)
	}
}

func TestNewClientValidation(t *testing.T) {
	cases := []struct {
		name    string
		servers []string
	}{
		{"empty", nil},
		{"blank-url", []string{""}},
		{"no-scheme", []string{"localhost:8080"}},
		{"duplicate", []string{"http://a:1", "http://a:1/"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewClient(Options{Servers: tc.servers}); err == nil {
				t.Fatalf("NewClient accepted %v", tc.servers)
			}
		})
	}
	// Trailing slashes are normalized, not rejected.
	c, err := NewClient(Options{Servers: []string{"http://a:1/", "https://b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.servers[0].url != "http://a:1" {
		t.Fatalf("trailing slash not trimmed: %q", c.servers[0].url)
	}
}

func TestSharedRegistryAndWriteProm(t *testing.T) {
	reg := trace.NewRegistry()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serveVerified(w, testKey, testBody)
	}))
	defer ts.Close()
	c, err := NewClient(Options{Servers: []string{ts.URL}, Metrics: reg, Clock: &trace.FakeClock{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, handled, err := c.RunRemote(testKey, "cell", []byte(`{}`)); !handled || err != nil {
		t.Fatalf("RunRemote: handled %v err %v", handled, err)
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ipex_remote_attempts_total 1") &&
		!strings.Contains(sb.String(), `remote.attempts`) && !strings.Contains(sb.String(), "remote_attempts") {
		t.Fatalf("shared registry did not pick up remote counters:\n%s", sb.String())
	}
	sb.Reset()
	if err := c.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"ipex_remote_breaker_state{server=",
		"ipex_remote_server_attempts_total{server=",
		"ipex_remote_server_failures_total{server=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm missing %q:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(c.Summary(), "remote: cells=1 fallback=0 unroutable=0 failed=0 attempts=1 ok=1") {
		t.Fatalf("summary format drifted: %s", c.Summary())
	}
}
