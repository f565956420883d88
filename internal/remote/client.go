package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ipex/internal/nvp"
	"ipex/internal/trace"
)

// maxResultBody bounds a /v1/run response body read (a cycle-recording
// result can be large, but never this large).
const maxResultBody = 64 << 20

// errAllOpen reports that no server could be routed to: every circuit
// breaker is open and every health probe failed.
var errAllOpen = errors.New("every server's circuit breaker is open")

// Options configures a Client.
type Options struct {
	// Servers are the fleet's base URLs (http://host:port). At least one.
	Servers []string
	// Retries bounds re-attempts per cell beyond the first (default 3 when
	// negative; 0 means a single attempt).
	Retries int
	// Timeout is the per-attempt HTTP deadline (default 15s).
	Timeout time.Duration
	// HedgeAfter races a second replica when an attempt has not answered
	// within this duration (0 disables hedging).
	HedgeAfter time.Duration
	// BackoffBase scales the deterministic key-seeded jittered backoff
	// between retry rounds (default 50ms; the schedule is base<<(round-1),
	// capped at 32x, plus up to 50% jitter seeded by the cell key).
	BackoffBase time.Duration
	// RetryAfterCap bounds an honored server Retry-After (default 2s).
	RetryAfterCap time.Duration
	// NoLocalFallback fails a cell whose remote budget is exhausted instead
	// of degrading it to local execution.
	NoLocalFallback bool
	// BaseContext, when non-nil, bounds every remote interaction — attempts,
	// health probes, and backoff sleeps. Cancelling it (sweep shutdown)
	// aborts in-flight remote work promptly; cells then degrade per the
	// fallback policy. nil means context.Background().
	BaseContext context.Context
	// FailThreshold and Cooldown parameterize the per-server breakers (see
	// newBreaker; 0 takes the defaults).
	FailThreshold int
	Cooldown      int
	// Clock, when non-nil, feeds the attempt-latency histogram; nil keeps
	// it silent.
	Clock trace.Clock
	// Metrics, when non-nil, receives the remote.* counters and histograms;
	// nil uses a private registry (Snapshot and Summary still work).
	Metrics *trace.Registry
	// Logf, when non-nil, receives one line per degradation event.
	Logf func(format string, a ...any)
	// Transport overrides the HTTP transport (tests, chaos rigs).
	Transport http.RoundTripper
}

// serverState is one fleet member: its breaker plus per-server counters
// for the labelled /metrics series.
type serverState struct {
	url      string
	br       *breaker
	attempts *trace.Counter // private registry-free atomics would do, but
	failures *trace.Counter // Counter is exactly that and nil-safe
}

// Client executes cells against an ipexd fleet with the full resilience
// stack. It implements harness.RemoteRunner. Safe for concurrent use by
// every pool worker of a sweep.
type Client struct {
	servers []*serverState
	retries int
	hedge   time.Duration
	backoff time.Duration
	raCap   time.Duration
	noFall  bool

	hc           *http.Client
	probeTimeout time.Duration
	clock        trace.Clock
	logf         func(string, ...any)
	// base bounds every attempt, probe, and backoff sleep (shutdown).
	base context.Context
	// sleepFn is the backoff sleep; tests substitute a recorder.
	sleepFn func(context.Context, time.Duration)

	attempts     *trace.Counter
	okAttempts   *trace.Counter
	statusErrs   *trace.Counter
	netErrs      *trace.Counter
	verifyErrs   *trace.Counter
	cancelledA   *trace.Counter
	hedges       *trace.Counter
	hedgeWins    *trace.Counter
	retried      *trace.Counter
	retryAfterOK *trace.Counter
	brOpens      *trace.Counter
	probesC      *trace.Counter
	probeFails   *trace.Counter
	cellsRemote  *trace.Counter
	cellsFall    *trace.Counter
	cellsUnrt    *trace.Counter
	cellsFailed  *trace.Counter

	attemptSeconds *trace.Histogram
	backoffSeconds *trace.Histogram
}

// NewClient validates o and builds the client.
func NewClient(o Options) (*Client, error) {
	if len(o.Servers) == 0 {
		return nil, errors.New("remote: no servers")
	}
	if o.Retries < 0 {
		o.Retries = 3
	}
	if o.Timeout <= 0 {
		o.Timeout = 15 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.RetryAfterCap <= 0 {
		o.RetryAfterCap = 2 * time.Second
	}
	reg := o.Metrics
	if reg == nil {
		reg = trace.NewRegistry()
	}
	probeTimeout := o.Timeout
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	base := o.BaseContext
	if base == nil {
		base = context.Background()
	}
	c := &Client{
		retries:      o.Retries,
		hedge:        o.HedgeAfter,
		backoff:      o.BackoffBase,
		raCap:        o.RetryAfterCap,
		noFall:       o.NoLocalFallback,
		hc:           &http.Client{Timeout: o.Timeout, Transport: o.Transport},
		probeTimeout: probeTimeout,
		clock:        o.Clock,
		logf:         o.Logf,
		base:         base,
		sleepFn:      realSleep,

		attempts:     reg.Counter("remote.attempts"),
		okAttempts:   reg.Counter("remote.ok"),
		statusErrs:   reg.Counter("remote.status_errors"),
		netErrs:      reg.Counter("remote.net_errors"),
		verifyErrs:   reg.Counter("remote.verify_errors"),
		cancelledA:   reg.Counter("remote.cancelled"),
		hedges:       reg.Counter("remote.hedges"),
		hedgeWins:    reg.Counter("remote.hedge_wins"),
		retried:      reg.Counter("remote.retries"),
		retryAfterOK: reg.Counter("remote.retry_after_honored"),
		brOpens:      reg.Counter("remote.breaker_opens"),
		probesC:      reg.Counter("remote.probes"),
		probeFails:   reg.Counter("remote.probe_failures"),
		cellsRemote:  reg.Counter("remote.cells_remote"),
		cellsFall:    reg.Counter("remote.cells_local_fallback"),
		cellsUnrt:    reg.Counter("remote.cells_unroutable"),
		cellsFailed:  reg.Counter("remote.cells_failed"),

		attemptSeconds: reg.Histogram("remote.attempt_seconds", nil),
		backoffSeconds: reg.Histogram("remote.backoff_seconds", nil),
	}
	seen := make(map[string]bool, len(o.Servers))
	for _, raw := range o.Servers {
		u := raw
		for len(u) > 0 && u[len(u)-1] == '/' {
			u = u[:len(u)-1]
		}
		if u == "" {
			return nil, fmt.Errorf("remote: empty server URL in %q", raw)
		}
		if len(u) < 8 || (u[:7] != "http://" && u[:8] != "https://") {
			return nil, fmt.Errorf("remote: server %q: want an http:// or https:// base URL", raw)
		}
		if seen[u] {
			return nil, fmt.Errorf("remote: duplicate server %q", u)
		}
		seen[u] = true
		c.servers = append(c.servers, &serverState{
			url:      u,
			br:       newBreaker(o.FailThreshold, o.Cooldown),
			attempts: &trace.Counter{},
			failures: &trace.Counter{},
		})
	}
	return c, nil
}

// target is one routed destination: the server plus whether this admission
// is the breaker's half-open trial.
type target struct {
	s     *serverState
	trial bool
}

// rank orders the fleet by rendezvous hash of (cell key, server URL):
// every client routes a given cell to the same primary, so fleet-wide
// cache dedupe works without coordination, and the ranking degrades
// gracefully when servers die (the cell's order over survivors is stable).
func (c *Client) rank(key string) []*serverState {
	type scored struct {
		s *serverState
		h uint64
	}
	sc := make([]scored, len(c.servers))
	for i, s := range c.servers {
		h := fnv.New64a()
		io.WriteString(h, key)
		h.Write([]byte{0})
		io.WriteString(h, s.url)
		sc[i] = scored{s, h.Sum64()}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].h != sc[j].h {
			return sc[i].h > sc[j].h
		}
		return sc[i].s.url < sc[j].s.url
	})
	out := make([]*serverState, len(sc))
	for i := range sc {
		out[i] = sc[i].s
	}
	return out
}

// route picks the primary (and, when hedging is enabled, a hedge backup)
// for a cell: the first breaker-admitted servers in rendezvous order. An
// open breaker whose cooldown elapsed is health-probed over /healthz first
// — only a 200 earns the half-open trial. With hedging disabled no backup
// is selected at all: admitting one would claim breaker state (possibly a
// half-open trial slot) for a request that never launches.
func (c *Client) route(key string) (primary, backup *target) {
	want := 2
	if c.hedge <= 0 {
		want = 1
	}
	var tgts []*target
	for _, s := range c.rank(key) {
		switch s.br.admit() {
		case admitOK:
			tgts = append(tgts, &target{s: s})
		case admitTrial:
			tgts = append(tgts, &target{s: s, trial: true})
		case admitProbeFirst:
			c.probesC.Inc()
			if !c.probeHealth(s) {
				c.probeFails.Inc()
				continue
			}
			if s.br.probeResult(true) {
				tgts = append(tgts, &target{s: s, trial: true})
			}
		case admitRefused:
		}
		if len(tgts) == want {
			break
		}
	}
	switch len(tgts) {
	case 0:
		return nil, nil
	case 1:
		return tgts[0], nil
	default:
		return tgts[0], tgts[1]
	}
}

// probeHealth asks /healthz whether the server should receive traffic
// again. A draining ipexd answers 503, so a shutting-down server never
// re-enters rotation.
func (c *Client) probeHealth(s *serverState) bool {
	ctx, cancel := context.WithTimeout(c.base, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// RunRemote executes one cell against the fleet: up to 1+Retries attempt
// rounds (each possibly hedged), deterministic jittered backoff between
// rounds (a server Retry-After, capped, takes precedence), and graceful
// degradation — handled=false tells the harness to run the cell locally.
// It implements harness.RemoteRunner.
func (c *Client) RunRemote(key, label string, req []byte) (res nvp.Result, handled bool, err error) {
	var lastErr error
	var raHint time.Duration
	var raFrom *serverState
	rounds := 0
	for round := 0; round <= c.retries; round++ {
		if c.base.Err() != nil {
			// Sweep shutdown: stop spending the remote budget and degrade.
			if lastErr == nil {
				lastErr = c.base.Err()
			}
			break
		}
		// Route before the backoff sleep so a Retry-After hint is honored
		// only when this round actually targets the server that sent it —
		// a hint speaks for one server, not the fleet.
		primary, backup := c.route(key)
		if primary == nil {
			break
		}
		if round > 0 {
			c.retried.Inc()
			hint := raHint
			if raFrom != primary.s {
				hint = 0
			}
			c.sleepBackoff(key, round, hint)
		}
		rounds++
		out, hint, hintFrom, aerr := c.attemptHedged(primary, backup, key, req)
		if aerr == nil {
			c.cellsRemote.Inc()
			return out, true, nil
		}
		lastErr, raHint, raFrom = aerr, hint, hintFrom
	}
	if c.noFall {
		c.cellsFailed.Inc()
		if lastErr == nil {
			lastErr = errAllOpen
		}
		return nvp.Result{}, true, fmt.Errorf("remote: %s (%s): budget exhausted with local fallback disabled: %w", label, key, lastErr)
	}
	if rounds == 0 {
		c.cellsUnrt.Inc()
		if c.logf != nil {
			if c.base.Err() != nil {
				c.logf("remote: %s: shutdown in progress; simulating locally", label)
			} else {
				c.logf("remote: %s: no routable server (every breaker open); simulating locally", label)
			}
		}
	} else {
		c.cellsFall.Inc()
		if c.logf != nil {
			c.logf("remote: %s: retry budget exhausted (%v); simulating locally", label, lastErr)
		}
	}
	return nvp.Result{}, false, nil
}

// sleepBackoff waits between retry rounds: an honored Retry-After when the
// server sent one (capped), otherwise the deterministic key-seeded
// jittered exponential schedule. The chosen delay — not the measured sleep
// — feeds the backoff histogram, so the series is as deterministic as the
// schedule itself.
func (c *Client) sleepBackoff(key string, round int, retryAfter time.Duration) {
	var d time.Duration
	if retryAfter > 0 {
		d = retryAfter
		if d > c.raCap {
			d = c.raCap
		}
		c.retryAfterOK.Inc()
	} else {
		d = c.backoff << (round - 1)
		if max := 32 * c.backoff; d > max {
			d = max
		}
		if d > 0 {
			// Key-seeded jitter up to +50%: a fleet of clients retrying the
			// same instant spreads out, but a given cell's schedule is
			// reproducible.
			h := fnv.New64a()
			io.WriteString(h, key)
			var rb [8]byte
			binary.LittleEndian.PutUint64(rb[:], uint64(round))
			h.Write(rb[:])
			d += time.Duration(h.Sum64() % uint64(d/2+1))
		}
	}
	c.backoffSeconds.Observe(d.Seconds())
	c.sleepFn(c.base, d)
}

// attemptOut is one HTTP attempt's conclusion. srv identifies the server
// it ran against, so a Retry-After hint stays scoped to its sender.
type attemptOut struct {
	res        nvp.Result
	err        error
	retryAfter time.Duration
	hedge      bool
	srv        *serverState
}

// attemptHedged races the primary against a delayed hedge on the backup:
// the first verified response wins and the loser is cancelled. It fails
// only when every launched attempt failed; alongside the error it returns
// any Retry-After hint and the server that sent it.
func (c *Client) attemptHedged(primary, backup *target, key string, req []byte) (nvp.Result, time.Duration, *serverState, error) {
	ch := make(chan attemptOut, 2)
	pctx, pcancel := context.WithCancel(c.base)
	defer pcancel()
	go c.attempt(pctx, primary, key, req, false, ch)
	launched := 1
	hcancel := context.CancelFunc(func() {})
	// An admitted backup that never launches must hand its admission — in
	// particular a claimed half-open trial slot — back to its breaker, or
	// that breaker would refuse every future admission and a recovering
	// server would be permanently out of rotation. backup is set to nil at
	// launch, when attempt() takes over the breaker verdict.
	defer func() {
		if backup != nil {
			backup.s.br.release(backup.trial)
		}
	}()

	if backup != nil && c.hedge > 0 {
		t := hedgeTimer(c.hedge)
		select {
		case <-t.C:
			c.hedges.Inc()
			hctx, hc := context.WithCancel(c.base)
			defer hc()
			hcancel = hc
			go c.attempt(hctx, backup, key, req, true, ch)
			backup = nil
			launched = 2
		case out := <-ch:
			t.Stop()
			if out.err == nil {
				return out.res, 0, nil, nil
			}
			return nvp.Result{}, out.retryAfter, out.srv, out.err
		}
	}

	var firstFail attemptOut
	for i := 0; i < launched; i++ {
		out := <-ch
		if out.err == nil {
			if out.hedge {
				c.hedgeWins.Inc()
			}
			// Cancel the straggler and wait for it: its attempt concludes in
			// the cancelled bucket without a breaker verdict, and draining it
			// here means every attempt is bucketed once RunRemote returns.
			// Cancellation makes the wait prompt.
			pcancel()
			hcancel()
			for ; i+1 < launched; i++ {
				<-ch
			}
			return out.res, 0, nil, nil
		}
		if i == 0 || (firstFail.retryAfter == 0 && out.retryAfter > 0) {
			firstFail = out
		}
	}
	return nvp.Result{}, firstFail.retryAfter, firstFail.srv, firstFail.err
}

// outcomeKind buckets one attempt; every attempt lands in exactly one.
type outcomeKind int

const (
	outcomeOK outcomeKind = iota
	outcomeStatus
	outcomeNet
	outcomeVerify
	outcomeCancel
)

// attempt performs one HTTP attempt end to end: request, envelope
// verification, metrics bucketing, and the breaker verdict.
func (c *Client) attempt(ctx context.Context, t *target, key string, body []byte, hedge bool, ch chan<- attemptOut) {
	c.attempts.Inc()
	t.s.attempts.Inc()
	start := c.now()
	res, ra, code, kind, err := c.doOnce(ctx, t.s, key, body)
	switch kind {
	case outcomeOK:
		c.okAttempts.Inc()
		if c.clock != nil {
			c.attemptSeconds.ObserveDuration(c.clock.Now() - start)
		}
		t.s.br.report(true, t.trial)
	case outcomeCancel:
		// Our own hedge-race cancellation says nothing about the server:
		// no breaker verdict, but a claimed trial slot must be released.
		c.cancelledA.Inc()
		t.s.br.release(t.trial)
	case outcomeStatus:
		c.statusErrs.Inc()
		t.s.failures.Inc()
		if code == http.StatusTooManyRequests {
			// Backpressure is a live server protecting itself — honor the
			// Retry-After instead of counting toward opening the breaker.
			t.s.br.release(t.trial)
		} else if t.s.br.report(false, t.trial) {
			c.brOpens.Inc()
		}
	case outcomeNet:
		c.netErrs.Inc()
		t.s.failures.Inc()
		if t.s.br.report(false, t.trial) {
			c.brOpens.Inc()
		}
	case outcomeVerify:
		c.verifyErrs.Inc()
		t.s.failures.Inc()
		if t.s.br.report(false, t.trial) {
			c.brOpens.Inc()
		}
	}
	ch <- attemptOut{res: res, err: err, retryAfter: ra, hedge: hedge, srv: t.s}
}

// doOnce issues one POST /v1/run and verifies the response envelope: HTTP
// 200, X-Ipex-Key equal to the cell key, X-Ipex-Sha256 matching the body,
// and a strict decode. A response failing any check is an attempt failure
// — a corrupted or truncated body is a retry, never a result.
func (c *Client) doOnce(ctx context.Context, s *serverState, key string, body []byte) (nvp.Result, time.Duration, int, outcomeKind, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nvp.Result{}, 0, 0, outcomeNet, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nvp.Result{}, 0, 0, outcomeCancel, ctx.Err()
		}
		return nvp.Result{}, 0, 0, outcomeNet, err
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResultBody))
	if resp.StatusCode != http.StatusOK {
		ra := parseRetryAfter(resp)
		msg := firstLine(data)
		return nvp.Result{}, ra, resp.StatusCode, outcomeStatus,
			fmt.Errorf("%s: HTTP %d: %s", s.url, resp.StatusCode, msg)
	}
	if rerr != nil {
		if ctx.Err() != nil {
			return nvp.Result{}, 0, 0, outcomeCancel, ctx.Err()
		}
		return nvp.Result{}, 0, 0, outcomeNet, fmt.Errorf("%s: reading response: %w", s.url, rerr)
	}
	if got := resp.Header.Get("X-Ipex-Key"); got != key {
		return nvp.Result{}, 0, 0, outcomeVerify,
			fmt.Errorf("%s: key mismatch: want %s, got %q", s.url, key, got)
	}
	sum := sha256.Sum256(data)
	if got := resp.Header.Get("X-Ipex-Sha256"); got != hex.EncodeToString(sum[:]) {
		return nvp.Result{}, 0, 0, outcomeVerify,
			fmt.Errorf("%s: body checksum mismatch (%d bytes)", s.url, len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var res nvp.Result
	if err := dec.Decode(&res); err != nil {
		return nvp.Result{}, 0, 0, outcomeVerify,
			fmt.Errorf("%s: decoding verified body: %w", s.url, err)
	}
	return res, 0, resp.StatusCode, outcomeOK, nil
}

// now reads the injected clock (0 when none).
func (c *Client) now() time.Duration {
	if c.clock == nil {
		return 0
	}
	return c.clock.Now()
}

// parseRetryAfter reads a whole-seconds Retry-After header (the only form
// ipexd emits; HTTP dates are ignored).
func parseRetryAfter(resp *http.Response) time.Duration {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return 0
	}
	n, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// firstLine trims an error body to its first line for diagnostics.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// Snapshot is a point-in-time copy of the client's counters, for tests and
// the end-of-sweep summary. Attempts partition exactly:
// Attempts = OK + StatusErrors + NetErrors + VerifyErrors + Cancelled,
// and cells partition exactly:
// CellsRemote + CellsLocalFallback + CellsUnroutable + CellsFailed = calls.
type Snapshot struct {
	Attempts, OK, StatusErrors, NetErrors, VerifyErrors, Cancelled uint64
	Hedges, HedgeWins, Retries, RetryAfterHonored                  uint64
	BreakerOpens, Probes, ProbeFailures                            uint64
	CellsRemote, CellsLocalFallback, CellsUnroutable, CellsFailed  uint64
}

// Snapshot reads every counter (each individually; not a consistent cut).
func (c *Client) Snapshot() Snapshot {
	return Snapshot{
		Attempts:           c.attempts.Load(),
		OK:                 c.okAttempts.Load(),
		StatusErrors:       c.statusErrs.Load(),
		NetErrors:          c.netErrs.Load(),
		VerifyErrors:       c.verifyErrs.Load(),
		Cancelled:          c.cancelledA.Load(),
		Hedges:             c.hedges.Load(),
		HedgeWins:          c.hedgeWins.Load(),
		Retries:            c.retried.Load(),
		RetryAfterHonored:  c.retryAfterOK.Load(),
		BreakerOpens:       c.brOpens.Load(),
		Probes:             c.probesC.Load(),
		ProbeFailures:      c.probeFails.Load(),
		CellsRemote:        c.cellsRemote.Load(),
		CellsLocalFallback: c.cellsFall.Load(),
		CellsUnroutable:    c.cellsUnrt.Load(),
		CellsFailed:        c.cellsFailed.Load(),
	}
}

// Summary renders the end-of-sweep one-liner cmd/experiments prints to
// stderr (stable key=value form; make remote-smoke parses it).
func (c *Client) Summary() string {
	s := c.Snapshot()
	return fmt.Sprintf("remote: cells=%d fallback=%d unroutable=%d failed=%d attempts=%d ok=%d status_errors=%d net_errors=%d verify_errors=%d cancelled=%d retries=%d hedges=%d hedge_wins=%d breaker_opens=%d",
		s.CellsRemote, s.CellsLocalFallback, s.CellsUnroutable, s.CellsFailed,
		s.Attempts, s.OK, s.StatusErrors, s.NetErrors, s.VerifyErrors, s.Cancelled,
		s.Retries, s.Hedges, s.HedgeWins, s.BreakerOpens)
}

// WriteProm renders the per-server series (breaker state, attempts,
// failures) in configured server order — byte-deterministic for a given
// counter state, like every /metrics writer in the tree.
func (c *Client) WriteProm(w io.Writer) error {
	write := func(name, help, typ string, val func(*serverState) string) error {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ); err != nil {
			return err
		}
		for _, s := range c.servers {
			if _, err := fmt.Fprintf(w, "%s{server=%q} %s\n", name, s.url, val(s)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("ipex_remote_breaker_state", "per-server circuit-breaker state (0 closed, 1 half-open, 2 open)", "gauge",
		func(s *serverState) string { return strconv.Itoa(int(s.br.current())) }); err != nil {
		return err
	}
	if err := write("ipex_remote_server_attempts_total", "attempts routed to the server", "counter",
		func(s *serverState) string { return strconv.FormatUint(s.attempts.Load(), 10) }); err != nil {
		return err
	}
	return write("ipex_remote_server_failures_total", "failed attempts routed to the server", "counter",
		func(s *serverState) string { return strconv.FormatUint(s.failures.Load(), 10) })
}
