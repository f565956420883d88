package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// reply is what a test reads of one /v1/run response.
type reply struct {
	status       int
	key, outcome string
	body         []byte
}

func run(t *testing.T, ts *httptest.Server, body string) reply {
	t.Helper()
	resp := postRun(t, ts, body)
	return reply{resp.StatusCode, resp.Header.Get("X-Ipex-Key"), resp.Header.Get("X-Ipex-Cache"), readAll(t, resp)}
}

// A repeated body is answered from the memo with the key, bytes and store
// outcome a server without the memo answers it with, over /v1/run and
// /v1/batch alike.
func TestMemoRepeatMatchesUnmemoized(t *testing.T) {
	s, ts := newTestServer(t, "", 2, 8)
	_, plain := newSizedTestServer(t, "", 2, 8, 64, 0)
	bodies := []string{smallRun, `{"app":"qsort","scale":0.02,"config":{"ipex":"both"}}`, smallRun, smallRun}
	for i, body := range bodies {
		got, want := run(t, ts, body), run(t, plain, body)
		if got.status != http.StatusOK || got.key != want.key || got.outcome != want.outcome || !bytes.Equal(got.body, want.body) {
			t.Fatalf("request %d: memoized server answered %d %s %s, unmemoized %d %s %s",
				i, got.status, got.key, got.outcome, want.status, want.key, want.outcome)
		}
	}
	if got := s.memoHits.Load(); got != 2 {
		t.Fatalf("memo answered %d bodies, want the 2 repeats", got)
	}

	frames, err := readFrames(t, postBatch(t, ts, []string{smallRun, smallRun}))
	if err != nil || len(frames) != 2 {
		t.Fatalf("batch: %d frames, %v", len(frames), err)
	}
	first := run(t, plain, smallRun)
	for i, f := range frames {
		if f.Status != http.StatusOK || f.Key != first.key || f.Cache != "hit" || !bytes.Equal(f.body, first.body) {
			t.Fatalf("batch frame %d: %d %s %s, want 200 %s hit and the /v1/run bytes", i, f.Status, f.Key, f.Cache, first.key)
		}
	}
	// A batch item is its line without the newline: the /v1/run body.
	if got := s.memoHits.Load(); got != 4 {
		t.Fatalf("memo answered %d bodies after the batch, want 4", got)
	}
}

// A body that fails to decode or build is answered 400 every time and never
// enters the memo.
func TestMemoNeverHoldsBadBodies(t *testing.T) {
	s, ts := newTestServer(t, "", 1, 2)
	for _, body := range []string{
		`{"app":"doom"}`,
		`{"app":"fft","turbo":true}`,
		`{"app":"fft","scale":0.02}{"app":"qsort"}`,
		`not json`,
	} {
		for i := 0; i < 2; i++ {
			if r := run(t, ts, body); r.status != http.StatusBadRequest {
				t.Fatalf("%s (try %d): %d, want 400", body, i, r.status)
			}
		}
	}
	frames, err := readFrames(t, postBatch(t, ts, []string{`{"app":"doom"}`, `{"app":"doom"}`}))
	if err != nil || len(frames) != 2 || frames[0].Status != http.StatusBadRequest || frames[1].Status != http.StatusBadRequest {
		t.Fatalf("batch of bad items: %+v, %v", frames, err)
	}
	if n, hits := s.memo.Len(), s.memoHits.Load(); n != 0 || hits != 0 {
		t.Fatalf("memo holds %d entries and answered %d bodies after only bad requests", n, hits)
	}
}

// The memo holds at most -cache-entries bodies. A memoized body whose
// result the store dropped is decoded and built again to compute it, and a
// body the memo dropped is resolved as before: same key, same bytes.
func TestMemoBounded(t *testing.T) {
	s, ts := newSizedTestServer(t, "", 2, 8, 1, 2)
	bodies := make([]string, 5)
	want := make([]reply, len(bodies))
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"app":"fft","scale":0.02,"trace_seed":%d}`, i+1)
	}
	first := func(i int) {
		t.Helper()
		if want[i] = run(t, ts, bodies[i]); want[i].status != http.StatusOK || want[i].outcome != "miss" {
			t.Fatalf("body %d: %d %s %s", i, want[i].status, want[i].outcome, want[i].body)
		}
		if n := s.memo.Len(); n > 2 {
			t.Fatalf("memo holds %d entries, bound 2", n)
		}
	}
	again := func(i int, outcome string) {
		t.Helper()
		got := run(t, ts, bodies[i])
		if got.status != http.StatusOK || got.key != want[i].key || got.outcome != outcome || !bytes.Equal(got.body, want[i].body) {
			t.Fatalf("body %d again: %d %s %s, want 200 %s %s and the same bytes", i, got.status, got.key, got.outcome, want[i].key, outcome)
		}
	}

	// The memo holds both bodies; the store holds only the second result.
	first(0)
	first(1)
	again(0, "miss")
	if hits := s.memoHits.Load(); hits != 1 {
		t.Fatalf("memo answered %d bodies, want 1", hits)
	}
	for i := 2; i < len(bodies); i++ {
		first(i)
	}
	for i := range bodies {
		before := s.memoHits.Load()
		again(i, "miss")
		again(i, "hit")
		if s.memoHits.Load() == before {
			t.Fatalf("body %d: an immediate repeat missed the memo", i)
		}
		if n := s.memo.Len(); n > 2 {
			t.Fatalf("memo holds %d entries, bound 2", n)
		}
	}
}

// Memo hits leave the request accounting as it was: every request lands in
// exactly one store outcome or the error counter.
func TestMemoKeepsPartition(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), 2, 8)
	for _, body := range []string{smallRun, smallRun, `{"app":"doom"}`, smallRun} {
		run(t, ts, body)
	}
	frames, err := readFrames(t, postBatch(t, ts, []string{smallRun, `{"app":"doom"}`, smallRun}))
	if err != nil || len(frames) != 3 {
		t.Fatalf("batch: %d frames, %v", len(frames), err)
	}
	text := scrapeMetrics(t, ts)
	requests := promValue(t, text, "ipex_ipexd_requests")
	sum := promValue(t, text, "ipex_store_mem_hits") +
		promValue(t, text, "ipex_store_disk_hits") +
		promValue(t, text, "ipex_store_computed") +
		promValue(t, text, "ipex_store_coalesced") +
		promValue(t, text, "ipex_ipexd_errors")
	if requests != 7 || sum != requests {
		t.Fatalf("requests=%g, store outcomes + errors=%g; want 7 of each", requests, sum)
	}
	if hits := promValue(t, text, "ipex_ipexd_memo_hits"); hits != 4 || hits != float64(s.memoHits.Load()) {
		t.Fatalf("ipex_ipexd_memo_hits = %g, want 4", hits)
	}
}

// Concurrent identical bodies, first seen together, all get the same key
// and bytes from one simulation.
func TestMemoConcurrentIdenticalBodies(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, "", 2, 8)
	replies := make([]reply, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(smallRun))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			replies[i], errs[i] = reply{resp.StatusCode, resp.Header.Get("X-Ipex-Key"), resp.Header.Get("X-Ipex-Cache"), body}, err
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if r.status != http.StatusOK || r.key != replies[0].key || !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("request %d: %d %s, want 200 %s and the same bytes", i, r.status, r.key, replies[0].key)
		}
	}
	if ex := s.sup.Counters.Snapshot().Executed; ex != 1 {
		t.Fatalf("%d simulations for %d identical bodies, want 1", ex, n)
	}
	if s.memo.Len() != 1 {
		t.Fatalf("memo holds %d entries for one body", s.memo.Len())
	}
}
