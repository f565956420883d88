package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/remote"
	"ipex/internal/resultstore"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

var (
	// errBusy is the backpressure signal: the bounded queue is full, so the
	// request is refused (429 + Retry-After) instead of piling up.
	errBusy = errors.New("simulation queue is full; retry shortly")
	// errDraining refuses work that races the graceful shutdown.
	errDraining = errors.New("server is draining")
)

// retryAfterSecs picks the Retry-After delay for a 429: 1–4 seconds, seeded
// by the cell key so a given request always hears the same delay (replayable
// under test) while different requests spread out instead of stampeding back
// in lockstep when the queue frees up.
func retryAfterSecs(key string) string {
	h := fnv.New32a()
	io.WriteString(h, key)
	return strconv.Itoa(1 + int(h.Sum32()%4))
}

// testRunHook, when non-nil, runs at the start of every simulation on the
// worker goroutine. Tests use it to hold a worker mid-cell and observe the
// queue/backpressure behaviour deterministically; production never sets it.
var testRunHook func(app string)

// task is one queued simulation with its reply channel (buffered, so a
// worker never blocks on a departed waiter).
type task struct {
	cell harness.Cell
	done chan taskResult
}

type taskResult struct {
	res nvp.Result
	err error
}

// server is the simulation service: a content-addressed result store in
// front of a bounded worker pool. Request flow for POST /v1/run:
//
//	parse → cell key → store.GetOrCompute
//	  memory hit  → cached bytes               (X-Ipex-Cache: hit)
//	  disk hit    → verified bytes, promoted   (X-Ipex-Cache: hit-disk)
//	  in flight   → wait for the leader        (X-Ipex-Cache: coalesced)
//	  miss        → enqueue on the worker pool (X-Ipex-Cache: miss)
//
// The queue is bounded; a full queue refuses the request with 429 and
// Retry-After rather than queueing unboundedly — callers see backpressure,
// not latency collapse.
type server struct {
	store     *resultstore.Store
	reg       *trace.Registry
	sup       *harness.Supervisor
	workloads *workload.Store
	lim       remote.Limits
	workers   int

	queue   chan task
	qmu     sync.RWMutex
	qclosed bool
	wg      sync.WaitGroup
	// drained is cancelled when the drain begins: /healthz turns 503 and
	// /v1/batch streams end instead of waiting for their clients' next
	// lines.
	drained  context.Context
	drainNow context.CancelFunc

	inflight atomic.Int64
	requests *trace.Counter
	errs     *trace.Counter

	// memo holds the cell key of each request body resolved, so that a
	// repeated body — every warm fleet request — skips decoding, Build and
	// hashing; memoHits counts the bodies it answered. A body maps to one
	// key for the server's lifetime: the key is a function of the bytes and
	// the server's fixed limits.
	memo     *remote.BodyMemo[string]
	memoHits *trace.Counter

	// clock feeds the per-endpoint latency histograms (nil = silent, for
	// tests that want deterministic scrapes).
	clock         trace.Clock
	runSeconds    *trace.Histogram
	resultSeconds *trace.Histogram
}

// newServer wires the store, registry, and supervisor together and starts
// the worker pool: `workers` goroutines, each owning one nvp.Arena so
// steady-state simulations allocate nothing, consuming the bounded queue.
// memoEntries bounds the body → key memo (ipexd passes -cache-entries).
func newServer(store *resultstore.Store, reg *trace.Registry, sup *harness.Supervisor, clock trace.Clock, lim remote.Limits, workers, queueDepth, memoEntries int) *server {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	s := &server{
		store:     store,
		reg:       reg,
		sup:       sup,
		workloads: workload.Shared(),
		lim:       lim,
		workers:   workers,
		queue:     make(chan task, queueDepth),
		requests:  reg.Counter("ipexd.requests"),
		errs:      reg.Counter("ipexd.errors"),
		memo:      remote.NewBodyMemo[string](memoEntries),
		memoHits:  reg.Counter("ipexd.memo_hits"),

		clock:         clock,
		runSeconds:    reg.Histogram("ipexd.run_seconds", nil),
		resultSeconds: reg.Histogram("ipexd.result_seconds", nil),
	}
	s.drained, s.drainNow = context.WithCancel(context.Background())
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// One arena per worker, reused across every simulation this
			// worker runs (same discipline as harness.Pool workers).
			arena := nvp.NewArena()
			for t := range s.queue {
				res, err, _ := s.sup.RunCell(t.cell, arena)
				t.done <- taskResult{res: res, err: err}
			}
		}()
	}
	return s
}

// enqueue hands a task to the pool without ever blocking: a full queue is
// backpressure (errBusy), a closed one is the drain (errDraining). The
// read-lock makes send-vs-close race-free.
func (s *server) enqueue(t task) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.qclosed {
		return errDraining
	}
	select {
	case s.queue <- t:
		return nil
	default:
		return errBusy
	}
}

// beginDrain flips /healthz to 503 before the HTTP listener shuts down:
// fleet clients health-probe a server before re-admitting it through a
// half-open breaker, so a draining server announces its exit instead of
// absorbing (and 503-failing) a last wave of requests.
func (s *server) beginDrain() {
	s.drainNow()
}

// close drains the worker pool: no further enqueues, queued tasks finish,
// workers exit. Call after the HTTP server has shut down (so no handler is
// mid-enqueue).
func (s *server) close() {
	s.drainNow()
	s.qmu.Lock()
	if !s.qclosed {
		s.qclosed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	s.wg.Wait()
}

// mux builds the server's routing table.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/result/", s.handleResult)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// A draining server must fail its health check: the answer is read
		// by fleet clients deciding whether to route new work here, and a
		// server about to close its listener is not a routable destination
		// even though this handler can still answer.
		if s.drained.Err() != nil {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	return mux
}

// fail counts and writes one error response. Every counted request ends in
// exactly one bucket — a store outcome or this error counter — so the
// /metrics sums stay exact: requests = mem_hits + disk_hits + computed +
// coalesced + errors.
func (s *server) fail(w http.ResponseWriter, code int, msg string) {
	s.errs.Inc()
	http.Error(w, msg, code)
}

// handleRun serves POST /v1/run.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := trace.Start(s.clock)
	defer trace.Span(s.clock, s.runSeconds, start)

	// One byte past the cap, so that DecodeRunRequest refuses an oversized
	// body instead of reading a truncated one.
	req, err := io.ReadAll(io.LimitReader(r.Body, remote.MaxRequestBody+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return
	}
	key, outcome, body, code, err := s.resolve(req)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfterSecs(key))
		}
		s.fail(w, code, err.Error())
		return
	}
	s.serveBody(w, key, outcome, body)
}

// resolve answers one /v1/run body — the whole of a /v1/run request and
// one item of a /v1/batch stream: its cell key, from the memo or by decode,
// build and hash, then the store (cache tiers, singleflight, or a
// simulation on the worker pool). A memoized body is decoded and built again
// only when the store must compute it. On failure it returns the response
// status and an error whose text is the response message; key is set once
// the body got one.
func (s *server) resolve(req []byte) (key string, outcome resultstore.Outcome, body []byte, code int, err error) {
	sum := sha256.Sum256(req)
	var sp remote.Spec
	var tr *power.Trace
	key, hit := s.memo.Get(sum)
	if hit {
		s.memoHits.Inc()
	} else {
		if sp, tr, key, err = s.spec(req); err != nil {
			return "", 0, nil, http.StatusBadRequest, err
		}
		s.memo.Put(sum, key)
	}
	body, outcome, err = s.store.GetOrCompute(key, func() ([]byte, error) {
		if hit {
			var again string
			var err error
			if sp, tr, again, err = s.spec(req); err != nil {
				return nil, err
			}
			if again != key {
				return nil, fmt.Errorf("request body re-keyed from %s to %s", key, again)
			}
		}
		return s.simulate(sp, tr)
	})
	switch {
	case err == nil:
		return key, outcome, body, http.StatusOK, nil
	case errors.Is(err, errBusy):
		return key, 0, nil, http.StatusTooManyRequests, err
	case errors.Is(err, errDraining):
		return key, 0, nil, http.StatusServiceUnavailable, err
	default:
		return key, 0, nil, http.StatusInternalServerError, err
	}
}

// spec decodes and builds one request body and derives its cell key; every
// error is a client error.
func (s *server) spec(req []byte) (sp remote.Spec, tr *power.Trace, key string, err error) {
	rq, err := remote.DecodeRunRequest(req)
	if err != nil {
		return sp, nil, "", fmt.Errorf("decoding request: %w", err)
	}
	if sp, err = rq.Build(s.lim); err != nil {
		return sp, nil, "", err
	}
	tr = power.Shared(sp.Source, sp.Seed)
	return sp, tr, sp.Key(tr.Name, len(tr.Samples)), nil
}

// handleBatch serves POST /v1/batch: a JSONL body of /v1/run bodies,
// answered by one streamed frame per item in request order (the format is
// remote.WriteBatchFrame's). The handler reads the body one line at a time
// while it writes frames, and resolves each item through resolve, as
// handleRun does, before it reads the next: a cold batch occupies one queue
// slot rather than flooding the queue into 429s, and a warm one runs only
// as far ahead as the client has sent lines. Each frame is flushed as soon
// as its item is ready. Every item counts as one request and lands in
// exactly one store outcome or the error counter, like a /v1/run request;
// items beyond remote.MaxBatchItems are answered 413 frames, and the line
// that takes the body past remote.MaxBatchBody is answered a 413 frame that
// ends the stream.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	rc := http.NewResponseController(w)
	// Without full duplex an HTTP/1 server reads the whole body before the
	// first write; the client sends lines only as its workers need them.
	_ = rc.EnableFullDuplex()
	// A stream waiting for its client's next line would hold a graceful
	// drain until -drain-timeout. Once the drain begins, that read fails at
	// once and the stream ends; its cells take the per-cell path.
	stop := context.AfterFunc(s.drained, func() { _ = rc.SetReadDeadline(time.Unix(1, 0)) })
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	body := bufio.NewReader(io.LimitReader(r.Body, remote.MaxBatchBody+1))
	read, item := 0, 0
	for {
		line, err := body.ReadBytes('\n')
		if err != nil && err != io.EOF {
			// The client went away mid-line, or the drain began. Aborting
			// closes the connection rather than reading the next request
			// from it.
			panic(http.ErrAbortHandler)
		}
		read += len(line)
		capped := read > remote.MaxBatchBody
		var key, cache string
		var status int
		var out []byte
		switch {
		case capped:
			s.requests.Inc()
			s.errs.Inc()
			status, out = http.StatusRequestEntityTooLarge, []byte(fmt.Sprintf("batch body exceeds %d bytes", remote.MaxBatchBody))
		case len(bytes.TrimSpace(line)) > 0:
			key, status, cache, out = s.batchItem(item, line)
			item++
		case err != nil:
			return
		default:
			continue
		}
		// A write failure means the client went away; see serveBody.
		if remote.WriteBatchFrame(w, key, status, cache, out) != nil || rc.Flush() != nil {
			panic(http.ErrAbortHandler)
		}
		if capped {
			// The rest of the body is never read: end the stream and the
			// connection with it.
			panic(http.ErrAbortHandler)
		}
		if err != nil {
			return
		}
	}
}

// batchItem resolves the i-th item of a /v1/batch body and counts it: the
// frame's key (empty when the item never got one), status, cache outcome
// and body.
func (s *server) batchItem(i int, line []byte) (key string, status int, cache string, body []byte) {
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if i >= remote.MaxBatchItems {
		s.errs.Inc()
		return "", http.StatusRequestEntityTooLarge, "", []byte(fmt.Sprintf("batch item %d beyond the %d-item cap", i, remote.MaxBatchItems))
	}
	// The item is the line without its terminator, so that it shares its
	// memo entry with the same body sent to /v1/run.
	key, outcome, body, status, err := s.resolve(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		s.errs.Inc()
		return key, status, "", []byte(err.Error())
	}
	return key, status, outcome.String(), body
}

// handleResult serves GET /v1/result/<key>: cache tiers only, never a
// simulation — a cheap existence probe for a key returned earlier.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	start := trace.Start(s.clock)
	defer trace.Span(s.clock, s.resultSeconds, start)
	key := strings.TrimPrefix(r.URL.Path, "/v1/result/")
	if key == "" || strings.ContainsAny(key, "/.") {
		s.fail(w, http.StatusBadRequest, "want /v1/result/<cell key>")
		return
	}
	body, outcome, ok := s.store.Get(key)
	if !ok {
		s.fail(w, http.StatusNotFound, "result not cached")
		return
	}
	s.serveBody(w, key, outcome, body)
}

func (s *server) serveBody(w http.ResponseWriter, key string, outcome resultstore.Outcome, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Ipex-Key", key)
	h.Set("X-Ipex-Cache", outcome.String())
	// The body checksum lets clients commit a result only after verifying it
	// arrived intact — a truncated or proxy-mangled response must be a retry
	// on their side, never a mis-filed cell.
	sum := sha256.Sum256(body)
	h.Set("X-Ipex-Sha256", hex.EncodeToString(sum[:]))
	// A response write failure means the client went away; the result is
	// cached regardless, so there is nothing to recover.
	_, _ = w.Write(body)
}

// simulate runs one cell on the worker pool and serializes its result —
// the bytes that enter the store and therefore the bytes every future hit
// serves. Only called inside the store's singleflight, so concurrent
// identical requests cost exactly one queue slot and one simulation.
//
// The cell is unkeyed on purpose. The store owns keying, coalescing and the
// bounded cache; a keyed cell would also enter the long-lived supervisor's
// memo, which keeps every result it has run with no bound.
func (s *server) simulate(sp remote.Spec, tr *power.Trace) ([]byte, error) {
	t := task{
		cell: harness.Cell{
			Label: sp.App,
			Run: func(ctx context.Context, a *nvp.Arena) (nvp.Result, error) {
				if testRunHook != nil {
					testRunHook(sp.App)
				}
				st, err := s.workloads.Stream(sp.App, sp.Scale)
				if err != nil {
					return nvp.Result{}, err
				}
				cfg := sp.Config
				cfg.Metrics = s.reg
				res, err := a.RunStreamContext(ctx, st, tr, cfg)
				if err == nil && cfg.Paranoid && !res.Invariants.Clean() {
					// Worth the supervisor's bounded retries before the
					// request fails — never cached either way.
					err = harness.Transient(fmt.Errorf("%s: %s", sp.App, res.Invariants.Summary()))
				}
				return res, err
			},
		},
		done: make(chan taskResult, 1),
	}
	if err := s.enqueue(t); err != nil {
		return nil, err
	}
	out := <-t.done
	if out.err != nil {
		return nil, out.err
	}
	body, err := json.Marshal(out.res)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	return body, nil
}

// handleMetrics writes Prometheus text exposition 0.0.4: the server-level
// gauges first, then the shared registry (request/hit/miss/coalesced/
// evicted counters plus every simulator counter accumulated so far).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("ipex_ipexd_inflight", "requests currently being served", float64(s.inflight.Load()))
	gauge("ipex_ipexd_queue_depth", "simulations waiting for a worker", float64(len(s.queue)))
	gauge("ipex_ipexd_queue_capacity", "bounded queue size (backpressure threshold)", float64(cap(s.queue)))
	gauge("ipex_ipexd_workers", "simulation worker pool size", float64(s.workers))
	// Derived at scrape time from the store's outcome counters.
	hit, co := s.store.Rates()
	gauge("ipex_ipexd_cache_hit_ratio", "fraction of served requests answered from a cache tier", hit)
	gauge("ipex_ipexd_coalesce_rate", "fraction of served requests coalesced onto an in-flight computation", co)
	cs := s.sup.Counters.Snapshot()
	gauge("ipex_ipexd_cells_executed", "simulations run by the worker pool", float64(cs.Executed))
	gauge("ipex_ipexd_cells_retried", "simulation re-runs after a transient failure", float64(cs.Retried))
	gauge("ipex_ipexd_cell_panics", "isolated simulation panics (propagated as 500s)", float64(cs.Panics))
	// A scrape racing a disconnect can fail mid-write; there is no one to
	// report that to, so the error is dropped.
	_ = s.reg.WriteProm(w)
}
