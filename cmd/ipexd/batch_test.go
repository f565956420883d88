package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipex/internal/faultnet"
	"ipex/internal/harness"
	"ipex/internal/remote"
)

// postBatch sends items as one /v1/batch body and returns the response.
func postBatch(t *testing.T, ts *httptest.Server, items []string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(strings.Join(items, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// batchFrame is one parsed /v1/batch response frame.
type batchFrame struct {
	remote.BatchFrame
	body []byte
}

// readFrames parses a /v1/batch response, checking every frame's checksum,
// and returns its frames and the error that ended it before a clean end.
func readFrames(t *testing.T, resp *http.Response) ([]batchFrame, error) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	var out []batchFrame
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		var f batchFrame
		if err := json.Unmarshal(line, &f.BatchFrame); err != nil {
			t.Fatalf("frame %d header %q: %v", len(out), line, err)
		}
		f.body = make([]byte, f.Len)
		if _, err := io.ReadFull(br, f.body); err != nil {
			t.Fatalf("frame %d body: %v", len(out), err)
		}
		sum := sha256.Sum256(f.body)
		if f.SHA256 != hex.EncodeToString(sum[:]) {
			t.Fatalf("frame %d: checksum mismatch", len(out))
		}
		out = append(out, f)
	}
}

// scrapeMetrics returns one /metrics exposition.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(readAll(t, resp))
}

// TestBatchPartition pins /v1/batch's accounting: every item is one
// request, answered by one frame in request order, and lands in exactly
// one store outcome or the error counter — for a batch mixing disk hits,
// memory hits, a miss, bad items and more items than the cap, and for a
// body over the byte cap.
func TestBatchPartition(t *testing.T) {
	dir := t.TempDir()
	const (
		cached = `{"app":"fft","scale":0.02}`
		fresh  = `{"app":"gsme","scale":0.02}`
	)
	// A first server computes cached into the shared disk tier; the server
	// under test starts with an empty memory tier over the same directory.
	_, warm := newTestServer(t, dir, 1, 4)
	readAll(t, postRun(t, warm, cached))
	_, ts := newTestServer(t, dir, 2, 16)

	items := []string{
		cached,                // disk hit, promoted to memory
		cached,                // memory hit
		fresh,                 // miss
		`{"app":"no-such"}`,   // bad app: 400
		`{"app":"fft","x":1}`, // unknown field: 400
	}
	for len(items) < remote.MaxBatchItems+2 {
		items = append(items, cached) // memory hits up to the cap, then 413s
	}
	frames, err := readFrames(t, postBatch(t, ts, items))
	if err != nil || len(frames) != len(items) {
		t.Fatalf("%d frames for %d items: %v", len(frames), len(items), err)
	}
	want := []struct {
		status int
		cache  string
	}{{200, "hit-disk"}, {200, "hit"}, {200, "miss"}, {400, ""}, {400, ""}}
	for i, f := range frames {
		w := want[min(i, len(want)-1)]
		if i >= len(want) {
			w.status, w.cache = 200, "hit"
		}
		if i >= remote.MaxBatchItems {
			w.status, w.cache = http.StatusRequestEntityTooLarge, ""
		}
		if f.Status != w.status || f.Cache != w.cache {
			t.Fatalf("frame %d: status %d cache %q, want %d %q (%s)", i, f.Status, f.Cache, w.status, w.cache, f.body)
		}
		if (f.Status == http.StatusOK) != (f.Key != "") {
			t.Fatalf("frame %d: status %d with key %q", i, f.Status, f.Key)
		}
	}
	if frames[0].Key != frames[1].Key || !bytes.Equal(frames[0].body, frames[1].body) {
		t.Fatal("a disk hit and the memory hit of the same item differ")
	}
	// The batch serves the bytes /v1/run serves.
	single := postRun(t, ts, fresh)
	if single.Header.Get("X-Ipex-Key") != frames[2].Key || !bytes.Equal(readAll(t, single), frames[2].body) {
		t.Fatal("a batch frame differs from the /v1/run response for the same item")
	}

	// The line that takes a body past the byte cap is answered a 413 frame
	// that ends the stream and the connection.
	huge := []string{cached, strings.Repeat(" ", remote.MaxBatchBody), cached}
	capped, err := readFrames(t, postBatch(t, ts, huge))
	if len(capped) != 2 || capped[0].Status != http.StatusOK || capped[1].Status != http.StatusRequestEntityTooLarge || err == nil {
		t.Fatalf("oversized batch answered %d frame(s) %+v then %v, want a hit, a 413 and a cut stream", len(capped), capped, err)
	}

	text := scrapeMetrics(t, ts)
	requests := promValue(t, text, "ipex_ipexd_requests")
	if wantReq := float64(len(items) + 3); requests != wantReq { // the items, /v1/run, the capped batch's two
		t.Fatalf("ipex_ipexd_requests = %g, want %g", requests, wantReq)
	}
	buckets := map[string]float64{}
	for _, name := range []string{"ipex_store_mem_hits", "ipex_store_disk_hits", "ipex_store_computed", "ipex_store_coalesced", "ipex_ipexd_errors"} {
		buckets[name] = promValue(t, text, name)
	}
	sum := 0.0
	for _, v := range buckets {
		sum += v
	}
	if sum != requests {
		t.Fatalf("partition broken: requests=%g, buckets %v", requests, buckets)
	}
	if buckets["ipex_store_disk_hits"] != 1 || buckets["ipex_store_computed"] != 1 || buckets["ipex_ipexd_errors"] != 5 {
		t.Fatalf("buckets %v, want 1 disk hit, 1 computed, 5 errors (2 bad items, 2 past the item cap, 1 past the byte cap)", buckets)
	}
}

// batchCounter counts the /v1/batch requests a client sends.
type batchCounter struct {
	next    http.RoundTripper
	batches atomic.Int64
}

func (b *batchCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/batch" {
		b.batches.Add(1)
	}
	return b.next.RoundTrip(r)
}

// TestBatchChaosByteIdentical farms a journaled sweep to two servers behind
// faultnet proxies that truncate and corrupt responses — /v1/batch streams
// mid-frame among them. Every cell a broken stream leaves unanswered must
// take the per-cell path: the output stays byte-identical to the local
// sweep, every attempt lands in one bucket, no cell fails, and a local
// -resume of the journal executes nothing.
func TestBatchChaosByteIdentical(t *testing.T) {
	golden := goldenFig11(t)

	_, tsA := newTestServer(t, t.TempDir(), 2, 16)
	_, tsB := newTestServer(t, t.TempDir(), 2, 16)
	chaos := faultnet.Config{TruncateProb: 0.3, CorruptProb: 0.3}
	a, b := chaos, chaos
	// Each proxy's first connection carries the first batch stream routed
	// to its server. Seed 4 truncates a proxy's first connection and
	// corrupts its second, so a batch stream is cut mid-frame whatever the
	// schedule, and a corruption follows on the same proxy.
	a.Seed, b.Seed = 4, 4
	pA := chaosProxy(t, tsA, a)
	pB := chaosProxy(t, tsB, b)

	counter := &batchCounter{next: freshConns()}
	rc, err := remote.NewClient(remote.Options{
		Servers:       []string{"http://" + pA.Addr(), "http://" + pB.Addr()},
		Retries:       8,
		Timeout:       10 * time.Second,
		HedgeAfter:    50 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		FailThreshold: 1 << 20,
		Transport:     counter,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	const sweepKey = "batch-chaos"
	journal, err := harness.CreateJournal(path, sweepKey)
	if err != nil {
		t.Fatal(err)
	}
	sup := &harness.Supervisor{PropagatePanics: true, Remote: rc, Journal: journal}
	got := asJSON(t, fig11Sweep(t, sup, remote.EncodeCell))
	journal.Close()
	if got != golden {
		t.Fatalf("batched sweep under chaos diverged from local golden:\nremote %s\nlocal  %s", got, golden)
	}
	s := rc.Snapshot()
	checkAttemptPartition(t, s)
	if s.CellsFailed != 0 || s.CellsLocalFallback+s.CellsUnroutable != 0 {
		t.Fatalf("chaos failed or degraded cells: %+v", s)
	}
	if counter.batches.Load() == 0 {
		t.Fatalf("the sweep sent no /v1/batch request: %+v", s)
	}
	fA, fB := pA.Counters.Snapshot(), pB.Counters.Snapshot()
	if fA.Truncates+fB.Truncates == 0 || fA.Corrupts+fB.Corrupts == 0 || s.VerifyErrors+s.NetErrors == 0 {
		t.Fatalf("the proxies did not both truncate and corrupt responses the client caught: %s; %s; %+v", fA, fB, s)
	}

	j, replay, _, err := harness.ResumeJournal(path, sweepKey)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	local := &harness.Supervisor{PropagatePanics: true, Journal: j, Replay: replay}
	if resumed := asJSON(t, fig11Sweep(t, local, nil)); resumed != golden {
		t.Fatalf("resume of the batched journal diverged:\nresumed %s\nlocal   %s", resumed, golden)
	}
	if n := local.Counters.Snapshot().Executed; n != 0 {
		t.Fatalf("resume executed %d cell(s), want 0", n)
	}
	t.Logf("%d batch requests; %s; %s; %+v", counter.batches.Load(), fA, fB, s)
}

// TestBatchUsesFleetWarmPath pins that a warm fleet answers a sweep through
// /v1/batch: every distinct key of a journaled sweep is answered from a
// batch frame, with no per-cell request and no hedge.
func TestBatchUsesFleetWarmPath(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), 2, 16)
	run := func() remote.Snapshot {
		rc, err := remote.NewClient(remote.Options{Servers: []string{ts.URL}, Retries: 2, BackoffBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		sup := &harness.Supervisor{PropagatePanics: true, Remote: rc}
		fig11Sweep(t, sup, remote.EncodeCell)
		return rc.Snapshot()
	}
	run()
	s := run()
	if s.CellsRemote != 8 || s.Batched != 8 || s.Attempts != 8 || s.OK != 8 || s.Hedges != 0 {
		t.Fatalf("warm sweep: want all 8 cells answered from batch frames in 8 attempts, got %+v", s)
	}
	checkAttemptPartition(t, s)
}

// TestBatchDrainEndsIdleStream pins the drain: a /v1/batch stream waiting
// for its client's next line ends as soon as the server begins draining,
// instead of holding the graceful shutdown open.
func TestBatchDrainEndsIdleStream(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), 1, 4)
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() { _, _ = pw.Write([]byte(`{"app":"fft","scale":0.02}` + "\n")) }()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var f remote.BatchFrame
	if err := json.Unmarshal(line, &f); err != nil || f.Status != http.StatusOK {
		t.Fatalf("first frame %q: %v", line, err)
	}
	if _, err := io.ReadFull(br, make([]byte, f.Len)); err != nil {
		t.Fatal(err)
	}

	s.beginDrain()
	ended := make(chan error, 1)
	go func() {
		_, err := br.ReadByte()
		ended <- err
	}()
	select {
	case err := <-ended:
		if err == nil {
			t.Fatal("the stream went on after the drain began")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an idle stream still held the connection 5s into the drain")
	}
}
