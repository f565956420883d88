package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/remote"
	"ipex/internal/workload"
)

// failedMs stands in for the +Inf latency of a failed request, so that any
// failure above the reported percentile's rank pushes it far above every
// real latency while the value stays representable in JSON.
const failedMs = 1e9

// popKey is one key of the serve-mixed population: its request body, its
// cell key and the result body this process computed for it.
type popKey struct {
	body []byte
	key  string
	ref  []byte
}

// request is one /v1/run the load generator sends.
type request struct {
	id   int
	body []byte
	key  string // "" for a fresh key, checked after the phase
	rq   remote.RunRequest
	pop  int  // population index, -1 for a fresh key
	dup  bool // repeats the previous fresh request back to back
}

// mix draws the serve-mixed request stream: 75% Zipf(1.1) over the warmed
// population, 25% fresh keys, a fifth of which are sent twice back to back
// so that the second copy coalesces onto (or hits) the first.
type mix struct {
	mu     sync.Mutex
	rng    *rand.Rand
	zipf   *rand.Zipf
	rank   []int // Zipf rank → population index
	pop    []popKey
	shapes []remote.RunRequest
	next   int
	fresh  uint64
	repeat *request
}

func newMix(rng *rand.Rand, pop []popKey, shapes []remote.RunRequest) *mix {
	return &mix{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(pop)-1)),
		rank: rng.Perm(len(pop)), pop: pop, shapes: shapes}
}

func (m *mix) draw() request {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.next
	m.next++
	if r := m.repeat; r != nil {
		m.repeat = nil
		r.id, r.dup = id, true
		return *r
	}
	if m.rng.Float64() < 0.75 {
		i := m.rank[m.zipf.Uint64()]
		return request{id: id, body: m.pop[i].body, key: m.pop[i].key, pop: i}
	}
	// A fresh key: a population shape with a cycle budget no run reaches,
	// which enters the cell identity without changing the simulation.
	rq := m.shapes[m.rng.Intn(len(m.shapes))]
	cfg := *rq.Config
	m.fresh++
	cfg.MaxCycles = nvp.DefaultMaxCycles + m.fresh
	rq.Config = &cfg
	body, _ := json.Marshal(rq)
	r := request{id: id, body: body, rq: rq, pop: -1}
	if m.rng.Float64() < 0.2 {
		rep := r
		m.repeat = &rep
	}
	return r
}

// sample is one request's timeline and verdict.
type sample struct {
	req     request
	due     time.Time // open loop only
	wake    time.Time // when the generator woke for it
	pickup  time.Time // when a connection took it and sent it
	done    time.Time
	ok      bool
	status  int
	outcome string // X-Ipex-Cache
	gotKey  string
}

// loadgen sends requests over at most conns connections to one server.
type loadgen struct {
	b      *bench
	url    string
	client *http.Client
	tr     *tracer
}

// do sends r and verifies the response: status 200, the body's SHA-256
// against X-Ipex-Sha256, the key against X-Ipex-Key, and for a population
// key the body against the locally computed result.
func (g *loadgen) do(r request, s *sample) {
	s.req = r
	s.pickup = time.Now()
	resp, err := g.client.Post(g.url+"/v1/run", "application/json", bytes.NewReader(r.body))
	if err != nil {
		s.done = time.Now()
		fmt.Fprintf(os.Stderr, "bench: request %d: %v\n", r.id, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.status = resp.StatusCode
	s.outcome = resp.Header.Get("X-Ipex-Cache")
	s.gotKey = resp.Header.Get("X-Ipex-Key")
	if g.tr != nil {
		var parent int64
		if !s.due.IsZero() {
			parent = g.tr.newID()
			g.tr.record("request", "r"+strconv.Itoa(r.id), parent, 0, s.due, s.done, s.outcome)
		}
		g.tr.record("http", "r"+strconv.Itoa(r.id), g.tr.newID(), parent, s.pickup, s.done, s.outcome)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		// A failure, counted by the caller; not a wrong output.
		fmt.Fprintf(os.Stderr, "bench: request %d: status %d %v\n", r.id, resp.StatusCode, err)
		return
	}
	sum := sha256.Sum256(body)
	switch {
	case resp.Header.Get("X-Ipex-Sha256") != hex.EncodeToString(sum[:]):
		g.b.mismatchf("request %d: body does not match X-Ipex-Sha256", r.id)
	case r.key != "" && s.gotKey != r.key:
		g.b.mismatchf("request %d: X-Ipex-Key %s, want %s", r.id, s.gotKey, r.key)
	case r.pop >= 0 && !bytes.Equal(body, g.b.pop[r.pop].ref):
		g.b.mismatchf("request %d (%s, population key %s): body differs from the locally computed result", r.id, s.outcome, r.key)
	default:
		s.ok = true
	}
}

// openLoop sends a Poisson stream at rate req/s for dur, each request at
// its due time whatever is still in flight; the generator queues requests
// for a free connection.
func (g *loadgen) openLoop(m *mix, rate float64, dur time.Duration, conns int) []sample {
	var reqs []request
	var dues []time.Duration
	for t := 0.0; ; {
		r := m.draw()
		if !r.dup {
			t += m.rng.ExpFloat64() / rate
		}
		if t >= dur.Seconds() {
			break
		}
		reqs = append(reqs, r)
		dues = append(dues, time.Duration(t*float64(time.Second)))
	}
	out := make([]sample, len(reqs))
	work := make(chan int, len(reqs)) // never blocks the schedule
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				g.do(reqs[i], &out[i])
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(dues[i])
		time.Sleep(time.Until(due))
		out[i].due, out[i].wake = due, time.Now()
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// closedLoop keeps conns requests in flight, each connection sending its
// next request when the previous one returns, for dur.
func (g *loadgen) closedLoop(m *mix, dur time.Duration, conns int) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var s sample
				g.do(m.draw(), &s)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out, time.Since(start)
}

// serveMixed is the service user's view: one ipexd with a disk tier and a
// memory tier smaller than the warmed population, under an open-loop
// Poisson phase (latency) and a closed-loop phase (throughput).
func (b *bench) serveMixed() error {
	rng := rand.New(rand.NewSource(int64(b.cfg.seed)))
	g := grid{scale: b.sz.serveScale, apps: b.sz.apps}
	t0 := time.Now()
	store := workload.NewStore()
	if err := loadStreams(store, g); err != nil {
		return err
	}
	b.m["workload.stream_gen_s"] = time.Since(t0).Seconds()
	shapes, err := b.buildPopulation(rng, store, g)
	if err != nil {
		return err
	}

	var srv *server
	var setups []float64
	for i := 0; i < b.sz.serverSetups; i++ {
		if err := srv.stop(); err != nil {
			return err
		}
		t0 := time.Now()
		srv, err = b.startServer("-workers", "2", "-cache-dir", filepath.Join(b.work, fmt.Sprintf("cache%d", i)),
			"-cache-entries", strconv.Itoa(b.sz.cacheEntries))
		if err != nil {
			return err
		}
		if err := b.warm(srv); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.m["setup_s"] = median(setups)

	tr := &http.Transport{MaxConnsPerHost: b.par, MaxIdleConnsPerHost: b.par, DisableCompression: true}
	defer tr.CloseIdleConnections()
	lg := &loadgen{b: b, url: srv.url, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: b.tr}
	m := newMix(rng, b.pop, shapes)

	before, err := srv.scrape()
	if err != nil {
		return err
	}
	p0 := readProc(b.live())
	openDur := b.cfg.seconds * 6 / 10
	openStart := time.Now()
	open := lg.openLoop(m, b.sz.rate, openDur, b.par)
	// The closed loop runs in four windows; a traced run leaves spans off
	// in the first and third, giving trace_overhead_frac.
	var closed []sample
	var rates, tracedRates []float64
	for w := 0; w < 4; w++ {
		lg.tr = nil
		if b.tr != nil && w%2 == 1 {
			lg.tr = b.tr
		}
		ss, el := lg.closedLoop(m, (b.cfg.seconds-openDur)/4, b.par)
		closed = append(closed, ss...)
		rate := float64(countOK(ss)) / el.Seconds()
		if lg.tr != nil {
			tracedRates = append(tracedRates, rate)
		} else {
			rates = append(rates, rate)
		}
	}
	proc := readProc(b.live()).sub(p0)
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	all := append(open, closed...)
	if err := b.checkFreshKeys(all); err != nil {
		return err
	}

	// End to end: latency from the due time, a failure counting as +Inf.
	var lat []float64
	for _, s := range open {
		if s.ok {
			lat = append(lat, float64(s.done.Sub(s.due))/float64(time.Millisecond))
		} else {
			lat = append(lat, failedMs)
		}
	}
	b.attempted += int64(len(all))
	b.failed += int64(len(all) - countOK(all))
	b.m["p50_ms"] = quantile(lat, 0.5)
	b.m["p99_ms"] = quantile(lat, 0.99)
	b.m["cells_per_s"] = median(rates)
	b.m["peak_rss_mb"] = peakRSSMiB(b.live())
	b.digest = combineDigests(popDigests(b.pop))
	if b.tr == nil {
		return nil
	}

	// Per layer, over the whole timed region.
	L := b.m
	busy, insts := b.serverLayers(L, before, after, "timed region")
	L["nvp.busy_s"] = busy
	L["nvp.insts"] = float64(insts)
	if insts > 0 {
		L["nvp.ns_per_inst"] = busy * 1e9 / float64(insts)
	}
	proc.layers(L)
	L["trace_overhead_frac"] = 1 - median(tracedRates)/median(rates)
	byOutcome := map[string][]float64{}
	var late, connWait []float64
	var sent, status429 int
	openEnd := openStart.Add(openDur)
	for _, s := range open {
		if s.ok {
			byOutcome[s.outcome] = append(byOutcome[s.outcome], float64(s.done.Sub(s.pickup))/float64(time.Millisecond))
		}
		late = append(late, float64(s.wake.Sub(s.due))/float64(time.Millisecond))
		connWait = append(connWait, float64(s.pickup.Sub(s.wake))/float64(time.Millisecond))
		if s.pickup.Before(openEnd) {
			sent++
		}
	}
	for _, s := range all {
		if s.status == http.StatusTooManyRequests {
			status429++
		}
	}
	L["serve.hit_p50_ms"] = quantile(byOutcome["hit"], 0.5)
	L["serve.hit_p99_ms"] = quantile(byOutcome["hit"], 0.99)
	L["serve.disk_hit_p50_ms"] = quantile(byOutcome["hit-disk"], 0.5)
	L["serve.miss_p50_ms"] = quantile(byOutcome["miss"], 0.5)
	L["serve.miss_p99_ms"] = quantile(byOutcome["miss"], 0.99)
	L["serve.status_429"] = float64(status429)
	L["loadgen.late_p99_ms"] = quantile(late, 0.99)
	L["loadgen.conn_wait_p99_ms"] = quantile(connWait, 0.99)
	L["loadgen.sent"] = float64(sent)
	L["loadgen.due"] = float64(len(open))
	return nil
}

// buildPopulation draws the population keys from every (app, power source,
// IPEX mode, data prefetcher) shape and computes each key's result body in
// this process, for comparison with what the server returns. It returns
// the shapes, from which fresh keys are drawn later.
func (b *bench) buildPopulation(rng *rand.Rand, store *workload.Store, g grid) ([]remote.RunRequest, error) {
	var shapes []remote.RunRequest
	for _, app := range g.appList() {
		for _, src := range power.Sources {
			for _, ipex := range []string{"off", "data", "both"} {
				for _, dp := range []string{"stride", "ghb"} {
					shapes = append(shapes, remote.RunRequest{App: app, Scale: g.scale, Source: src.String(),
						TraceSeed: b.cfg.seed, Config: &remote.ConfigRequest{IPEX: ipex, DPrefetcher: dp}})
				}
			}
		}
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	n := min(b.sz.population, len(shapes))
	specs := make([]remote.Spec, n)
	b.pop = make([]popKey, n)
	traces := map[power.Source]*power.Trace{}
	for i, rq := range shapes[:n] {
		sp, err := rq.Build(remote.Limits{})
		if err != nil {
			return nil, err
		}
		if traces[sp.Source] == nil {
			traces[sp.Source] = power.Generate(sp.Source, power.DefaultTraceSamples, sp.Seed)
		}
		body, err := json.Marshal(rq)
		if err != nil {
			return nil, err
		}
		specs[i] = sp
		b.pop[i] = popKey{body: body, key: sp.Key(sp.Source.String(), power.DefaultTraceSamples)}
	}
	// The reference bodies: the same simulation and encoding ipexd runs.
	errs := make([]error, b.par)
	var wg sync.WaitGroup
	for w := 0; w < b.par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := nvp.NewArena()
			for i := w; i < n; i += b.par {
				sp := specs[i]
				st, err := store.Stream(sp.App, sp.Scale)
				if err != nil {
					errs[w] = err
					return
				}
				res, err := arena.RunStreamContext(context.Background(), st, traces[sp.Source], sp.Config)
				if err != nil {
					errs[w] = err
					return
				}
				if b.pop[i].ref, err = json.Marshal(res); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shapes, nil
}

// warm sends every population key once to a fresh server, b.par at a time.
// Each must be a miss whose body equals the local result.
func (b *bench) warm(srv *server) error {
	tr := &http.Transport{MaxConnsPerHost: b.par, MaxIdleConnsPerHost: b.par}
	defer tr.CloseIdleConnections()
	lg := &loadgen{b: b, url: srv.url, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	next := make(chan int)
	out := make([]sample, len(b.pop))
	var wg sync.WaitGroup
	for c := 0; c < b.par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lg.do(request{id: -1 - i, body: b.pop[i].body, key: b.pop[i].key, pop: i}, &out[i])
			}
		}()
	}
	for i := range b.pop {
		next <- i
	}
	close(next)
	wg.Wait()
	if b.mismatch != "" {
		return fmt.Errorf("warming the population: %s", b.mismatch)
	}
	for i, s := range out {
		if !s.ok || s.outcome != "miss" {
			return fmt.Errorf("warming population key %d: status %d, cache %q", i, s.status, s.outcome)
		}
	}
	return nil
}

// checkFreshKeys verifies, after the timed phases, that every fresh-key
// response carried the key its request hashes to.
func (b *bench) checkFreshKeys(ss []sample) error {
	for _, s := range ss {
		if !s.ok || s.req.pop >= 0 {
			continue
		}
		sp, err := s.req.rq.Build(remote.Limits{})
		if err != nil {
			return err
		}
		if want := sp.Key(sp.Source.String(), power.DefaultTraceSamples); s.gotKey != want {
			b.mismatchf("request %d: X-Ipex-Key %s, want %s", s.req.id, s.gotKey, want)
		}
	}
	return nil
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

func popDigests(pop []popKey) []string {
	out := make([]string, len(pop))
	for i, p := range pop {
		out[i] = digestOf(p.key, string(p.ref))
	}
	return out
}
