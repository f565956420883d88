package main

// The chaos suite is the tentpole's end-to-end proof: a sweep farmed to an
// ipexd fleet through hostile networks — drops, resets, truncation,
// corruption, 429 storms, a server killed mid-flight, or no fleet at all —
// produces output byte-identical to the purely local sweep, with zero
// failed cells. The faultnet proxies are seeded, so each run replays the
// same hostility schedule.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipex/internal/experiments"
	"ipex/internal/faultnet"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/remote"
)

// fig11Sweep runs the suite's reference sweep: Figure 11 over two apps at a
// tiny scale — 8 cells (4 configurations × 2 apps), all remotable.
func fig11Sweep(t *testing.T, sup *harness.Supervisor, enc experiments.RemoteEncoder) *experiments.Fig11Result {
	t.Helper()
	res, err := experiments.Fig11(experiments.Options{
		Scale:        0.02,
		Apps:         []string{"fft", "gsme"},
		Parallelism:  4,
		Sup:          sup,
		RemoteEncode: enc,
	})
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	return res
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goldenFig11 is the local ground truth every remote variant must
// reproduce byte for byte.
func goldenFig11(t *testing.T) string {
	t.Helper()
	return asJSON(t, fig11Sweep(t, &harness.Supervisor{PropagatePanics: true}, nil))
}

// chaosProxy puts a seeded faultnet proxy in front of an httptest server.
func chaosProxy(t *testing.T, ts *httptest.Server, cfg faultnet.Config) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.Listen("127.0.0.1:0", strings.TrimPrefix(ts.URL, "http://"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// freshConns forces one TCP connection per request so every attempt draws
// its own faultnet verdict (keep-alives would let one lucky connection
// carry the whole sweep).
func freshConns() http.RoundTripper {
	return &http.Transport{DisableKeepAlives: true}
}

func checkAttemptPartition(t *testing.T, s remote.Snapshot) {
	t.Helper()
	if got := s.OK + s.StatusErrors + s.NetErrors + s.VerifyErrors + s.Cancelled; got != s.Attempts {
		t.Fatalf("attempt buckets do not partition: %+v", s)
	}
}

func TestHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), 1, 4)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("live healthz = %s %q, want 200 ok", resp.Status, body)
	}
	s.beginDrain()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz = %s %q, want 503 draining", resp.Status, body)
	}
}

// TestRemoteSweepChaosByteIdentical farms the sweep to a 2-server fleet
// behind aggressive chaos (drops, resets, 429 storms, truncation,
// corruption, blackholes) and requires the output bytes of the purely
// local sweep, with every cell accounted for and none failed.
func TestRemoteSweepChaosByteIdentical(t *testing.T) {
	golden := goldenFig11(t)

	_, tsA := newTestServer(t, t.TempDir(), 2, 16)
	_, tsB := newTestServer(t, t.TempDir(), 2, 16)
	chaos := faultnet.Config{
		DropProb:       0.15,
		ResetProb:      0.10,
		BlackholeProb:  0.05,
		MaxHold:        200 * time.Millisecond,
		Reject429Prob:  0.10,
		RetryAfterSecs: 1,
		TruncateProb:   0.10,
		CorruptProb:    0.10,
	}
	a, b := chaos, chaos
	a.Seed, b.Seed = 11, 12
	pA := chaosProxy(t, tsA, a)
	pB := chaosProxy(t, tsB, b)

	rc, err := remote.NewClient(remote.Options{
		Servers:    []string{"http://" + pA.Addr(), "http://" + pB.Addr()},
		Retries:    8,
		Timeout:    10 * time.Second,
		HedgeAfter: 50 * time.Millisecond,
		// Real sleeps, but scaled down so the chaos retries don't dominate
		// the suite's wall clock.
		BackoffBase:   time.Millisecond,
		RetryAfterCap: 10 * time.Millisecond,
		// Chaos is line noise, not server death: a huge threshold keeps the
		// breakers out of the way so the retry/verify machinery is what's
		// under test. Breaker-driven degradation is pinned separately.
		FailThreshold: 1 << 20,
		Transport:     freshConns(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup := &harness.Supervisor{PropagatePanics: true, Remote: rc}
	got := asJSON(t, fig11Sweep(t, sup, remote.EncodeCell))
	if got != golden {
		t.Fatalf("remote sweep under chaos diverged from local golden:\nremote %s\nlocal  %s", got, golden)
	}

	s := rc.Snapshot()
	checkAttemptPartition(t, s)
	if s.CellsFailed != 0 {
		t.Fatalf("chaos failed %d cells: %+v", s.CellsFailed, s)
	}
	if s.CellsRemote == 0 {
		t.Fatalf("no cell survived remotely under chaos (all fell back): %+v", s)
	}
	if s.CellsRemote+s.CellsLocalFallback+s.CellsUnroutable != 8 {
		t.Fatalf("cell buckets do not cover the 8-cell sweep: %+v", s)
	}
	cs := sup.Counters.Snapshot()
	if cs.Failures != 0 || cs.Remote != s.CellsRemote {
		t.Fatalf("supervisor counters disagree with the client: sup %+v, client %+v", cs, s)
	}
	if pA.Counters.Snapshot().Injected()+pB.Counters.Snapshot().Injected() == 0 {
		t.Fatal("the chaos proxies injected nothing; the test proved nothing")
	}
}

// TestRemoteSweepTunedAndFaultedCells farms the cells the wire gained last —
// fault schedules (robust-ckpt, robust-sensor) and IPEX tunables carried by
// both columns of a sensitivity sweep (Fig. 25) — to a two-server fleet. The
// output must match the local run byte for byte, and every distinct cell
// key must execute remotely exactly once: none declined by the encoder,
// none degraded to local fallback.
func TestRemoteSweepTunedAndFaultedCells(t *testing.T) {
	runs := []struct {
		name string
		run  func(experiments.Options) (any, error)
	}{
		{"robust-ckpt", func(o experiments.Options) (any, error) { return experiments.RobustCkpt(o) }},
		{"robust-sensor", func(o experiments.Options) (any, error) { return experiments.RobustSensor(o) }},
		{"fig25", func(o experiments.Options) (any, error) { return experiments.Fig25(o) }},
	}
	sweep := func(sup *harness.Supervisor, enc experiments.RemoteEncoder) string {
		var out []any
		for _, r := range runs {
			res, err := r.run(experiments.Options{
				Scale:        0.02,
				Apps:         []string{"fft", "gsme"},
				Parallelism:  4,
				Sup:          sup,
				RemoteEncode: enc,
			})
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			out = append(out, res)
		}
		return asJSON(t, out)
	}
	golden := sweep(&harness.Supervisor{PropagatePanics: true}, nil)

	_, tsA := newTestServer(t, t.TempDir(), 2, 16)
	_, tsB := newTestServer(t, t.TempDir(), 2, 16)
	rc, err := remote.NewClient(remote.Options{
		Servers:     []string{tsA.URL, tsB.URL},
		Retries:     2,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A journal turns on the sweep's per-key memo, so each distinct key
	// goes to the fleet once and its repeats replay the first copy.
	journal, err := harness.CreateJournal(t.TempDir()+"/sweep.jsonl", "tuned-and-faulted")
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	sup := &harness.Supervisor{PropagatePanics: true, Remote: rc, Journal: journal}
	var (
		mu       sync.Mutex
		keys     = map[string]bool{}
		declined int
	)
	enc := func(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config, key string) []byte {
		body := remote.EncodeCell(app, scale, tr, seed, cfg, key)
		mu.Lock()
		defer mu.Unlock()
		keys[key] = true
		if body == nil {
			declined++
		}
		return body
	}
	if got := sweep(sup, enc); got != golden {
		t.Fatalf("fleet sweep diverged from local golden:\nremote %s\nlocal  %s", got, golden)
	}
	s := rc.Snapshot()
	if declined != 0 || len(keys) == 0 {
		t.Fatalf("EncodeCell declined %d of the cells under %d distinct keys", declined, len(keys))
	}
	if s.CellsRemote != uint64(len(keys)) || s.CellsLocalFallback+s.CellsUnroutable+s.CellsFailed != 0 {
		t.Fatalf("want all %d distinct keys remote and no fallback, got %+v", len(keys), s)
	}
	t.Logf("%d distinct keys, all served by the fleet", len(keys))
}

// TestRemoteServerKilledMidSweep kills one of two servers after its second
// request — in-flight connections die abruptly and later dials are refused,
// the remote-execution equivalent of kill -9 — and requires the sweep to
// finish byte-identical on the survivor plus local fallback.
func TestRemoteServerKilledMidSweep(t *testing.T) {
	golden := goldenFig11(t)

	sA, _ := newTestServer(t, t.TempDir(), 2, 16)
	sB, _ := newTestServer(t, t.TempDir(), 2, 16)

	// Whichever server receives the sweep's first request becomes the
	// victim: its in-flight connection dies abruptly and its listener
	// closes, so later dials are refused — deterministic regardless of how
	// rendezvous hashing splits the cells across the (random) test ports.
	var (
		victimIdx atomic.Int32 // 0 = nobody dead yet
		killOnce  sync.Once
		wrapped   [3]*httptest.Server
	)
	killable := func(idx int32, s *server) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if victimIdx.CompareAndSwap(0, idx) || victimIdx.Load() == idx {
				killOnce.Do(func() { _ = wrapped[idx].Listener.Close() })
				// Drop the connection mid-response, like a process that died.
				panic(http.ErrAbortHandler)
			}
			s.mux().ServeHTTP(w, r)
		}))
		wrapped[idx] = ts
		t.Cleanup(ts.Close)
		return ts
	}
	tsA := killable(1, sA)
	tsB := killable(2, sB)

	rc, err := remote.NewClient(remote.Options{
		Servers:     []string{tsA.URL, tsB.URL},
		Retries:     6,
		Timeout:     10 * time.Second,
		BackoffBase: time.Millisecond,
		Transport:   freshConns(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup := &harness.Supervisor{PropagatePanics: true, Remote: rc}
	got := asJSON(t, fig11Sweep(t, sup, remote.EncodeCell))
	if got != golden {
		t.Fatalf("sweep with a killed server diverged from local golden:\nremote %s\nlocal  %s", got, golden)
	}
	s := rc.Snapshot()
	checkAttemptPartition(t, s)
	if s.CellsFailed != 0 {
		t.Fatalf("server death failed %d cells: %+v", s.CellsFailed, s)
	}
	if s.CellsRemote == 0 {
		t.Fatalf("survivor served nothing: %+v", s)
	}
	if victimIdx.Load() == 0 {
		t.Fatal("no server was ever killed; the test proved nothing")
	}
	if s.NetErrors == 0 {
		t.Fatalf("killing a server mid-sweep produced no net errors: %+v", s)
	}
}

// TestRemoteAllServersDown points the sweep at a dead fleet: every cell
// must degrade to local execution and the output must not change at all.
func TestRemoteAllServersDown(t *testing.T) {
	golden := goldenFig11(t)

	rc, err := remote.NewClient(remote.Options{
		Servers:     []string{"http://127.0.0.1:1"},
		Retries:     1,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup := &harness.Supervisor{PropagatePanics: true, Remote: rc}
	got := asJSON(t, fig11Sweep(t, sup, remote.EncodeCell))
	if got != golden {
		t.Fatalf("dead-fleet sweep diverged from local golden:\nremote %s\nlocal  %s", got, golden)
	}
	s := rc.Snapshot()
	checkAttemptPartition(t, s)
	if s.CellsRemote != 0 || s.CellsFailed != 0 {
		t.Fatalf("dead fleet executed cells remotely?! %+v", s)
	}
	if s.CellsLocalFallback+s.CellsUnroutable != 8 {
		t.Fatalf("8 cells must all degrade locally: %+v", s)
	}
	if cs := sup.Counters.Snapshot(); cs.Remote != 0 || cs.Failures != 0 {
		t.Fatalf("supervisor saw remote cells or failures against a dead fleet: %+v", cs)
	}
}

// TestRemoteNoLocalFallbackFails pins the strict mode: with local fallback
// disabled, a dead fleet is a sweep error, not a silent local run.
func TestRemoteNoLocalFallbackFails(t *testing.T) {
	rc, err := remote.NewClient(remote.Options{
		Servers:         []string{"http://127.0.0.1:1"},
		Retries:         1,
		BackoffBase:     time.Millisecond,
		NoLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup := &harness.Supervisor{PropagatePanics: true, Remote: rc}
	_, err = experiments.Fig11(experiments.Options{
		Scale:        0.02,
		Apps:         []string{"fft"},
		Parallelism:  2,
		Sup:          sup,
		RemoteEncode: remote.EncodeCell,
	})
	if err == nil {
		t.Fatal("sweep succeeded against a dead fleet with local fallback disabled")
	}
	if !strings.Contains(err.Error(), "local fallback disabled") {
		t.Fatalf("error does not name the failure mode: %v", err)
	}
	if s := rc.Snapshot(); s.CellsFailed == 0 {
		t.Fatalf("no cell recorded as failed: %+v", s)
	}
}

// TestRemoteFleetDedupe pins the fleet-wide cache effect rendezvous routing
// exists for: a second identical sweep against the same server re-simulates
// nothing — every cell is answered from the content-addressed result cache.
func TestRemoteFleetDedupe(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), 2, 16)

	runOnce := func() (string, remote.Snapshot) {
		rc, err := remote.NewClient(remote.Options{
			Servers:     []string{ts.URL},
			Retries:     2,
			BackoffBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		sup := &harness.Supervisor{PropagatePanics: true, Remote: rc}
		return asJSON(t, fig11Sweep(t, sup, remote.EncodeCell)), rc.Snapshot()
	}

	first, s1 := runOnce()
	executedAfterFirst := s.sup.Counters.Snapshot().Executed
	if s1.CellsRemote != 8 {
		t.Fatalf("first sweep: %d/8 cells remote: %+v", s1.CellsRemote, s1)
	}
	if executedAfterFirst == 0 {
		t.Fatal("first sweep simulated nothing on the server")
	}

	second, s2 := runOnce()
	if second != first {
		t.Fatalf("second sweep's output diverged:\nfirst  %s\nsecond %s", first, second)
	}
	if s2.CellsRemote != 8 {
		t.Fatalf("second sweep: %d/8 cells remote: %+v", s2.CellsRemote, s2)
	}
	if executedNow := s.sup.Counters.Snapshot().Executed; executedNow != executedAfterFirst {
		t.Fatalf("second sweep re-simulated: %d cells executed, want still %d (cache hits)",
			executedNow, executedAfterFirst)
	}
}
