package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/remote"
)

// span is one timed interval at a layer boundary. Trace joins the spans of
// one unit of work: the cell key for sweep cells, the request id for
// serve-mixed requests, the experiment id for experiments.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil compare.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(name, traceID string, id, parent int64, start, end time.Time, note string) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Trace: traceID,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Note: note}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeFile writes one JSON span per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openCell is a cell between its start and its journal entry.
type openCell struct {
	start time.Time
	id    int64
}

// cellHooks brackets each sweep cell between two seams of the harness:
// Supervisor.Skip, which RunCell consults before anything else (start
// records the time and never skips), and the journal Sink, which receives
// the cell's final entry. The pair gives every cell's latency for two clock
// reads. On a traced pass the hooks also time the journal append, count
// distinct keys and record spans.
type cellHooks struct {
	next harness.Sink
	tr   *tracer
	// exp is the span id of the running experiment, the cells' parent.
	exp atomic.Int64

	mu      sync.Mutex
	open    map[string][]openCell // FIFO per key
	lat     []time.Duration
	appends []time.Duration
	seen    map[string]bool
	dups    int
}

func newCellHooks(next harness.Sink, tr *tracer) *cellHooks {
	return &cellHooks{next: next, tr: tr, open: map[string][]openCell{}, seen: map[string]bool{}}
}

func (h *cellHooks) start(key string) bool {
	c := openCell{start: time.Now(), id: h.tr.newID()}
	h.mu.Lock()
	h.open[key] = append(h.open[key], c)
	h.mu.Unlock()
	return false
}

// cellSpan is the span id of key's oldest open cell (0 when none).
func (h *cellHooks) cellSpan(key string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if q := h.open[key]; len(q) > 0 {
		return q[0].id
	}
	return 0
}

func (h *cellHooks) Append(e harness.Entry) error {
	t0 := time.Now()
	err := h.next.Append(e)
	t1 := time.Now()
	h.mu.Lock()
	q := h.open[e.Key]
	if len(q) == 0 {
		h.mu.Unlock()
		return err
	}
	c := q[0]
	if len(q) == 1 {
		delete(h.open, e.Key)
	} else {
		h.open[e.Key] = q[1:]
	}
	h.lat = append(h.lat, t1.Sub(c.start))
	if h.tr != nil {
		h.appends = append(h.appends, t1.Sub(t0))
		if h.seen[e.Key] {
			h.dups++
		}
		h.seen[e.Key] = true
	}
	h.mu.Unlock()
	if h.tr != nil {
		h.tr.record("cell", e.Key, c.id, h.exp.Load(), c.start, t1, e.Kind)
		h.tr.record("journal.append", e.Key, h.tr.newID(), c.id, t0, t1, "")
	}
	return err
}

// remoteProbe times the harness.RemoteRunner seam and, through its
// encoder and transport, the request encoding and the wire.
type remoteProbe struct {
	next  harness.RemoteRunner
	hooks *cellHooks
	tr    *tracer

	mu      sync.Mutex
	cells   []time.Duration
	insts   uint64 // instructions of the cells the fleet answered
	encode  time.Duration
	encodes int
	wire    time.Duration
	inCell  map[string]int64 // open remote.cell span per key
}

func newRemoteProbe(hooks *cellHooks, tr *tracer) *remoteProbe {
	return &remoteProbe{hooks: hooks, tr: tr, inCell: map[string]int64{}}
}

func (p *remoteProbe) RunRemote(key, label string, req []byte) (nvp.Result, bool, error) {
	id := p.tr.newID()
	p.mu.Lock()
	p.inCell[key] = id
	p.mu.Unlock()
	start := time.Now()
	res, handled, err := p.next.RunRemote(key, label, req)
	end := time.Now()
	p.mu.Lock()
	delete(p.inCell, key)
	p.cells = append(p.cells, end.Sub(start))
	if handled && err == nil {
		p.insts += res.Insts
	}
	p.mu.Unlock()
	note := "remote"
	if !handled {
		note = "declined"
	}
	p.tr.record("remote.cell", key, id, p.hooks.cellSpan(key), start, end, note)
	return res, handled, err
}

// encodeCell wraps remote.EncodeCell, which experiments call serially for
// every cell before the pool starts.
func (p *remoteProbe) encodeCell(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config, key string) []byte {
	start := time.Now()
	body := remote.EncodeCell(app, scale, tr, seed, cfg, key)
	end := time.Now()
	p.mu.Lock()
	p.encode += end.Sub(start)
	p.encodes++
	p.mu.Unlock()
	p.tr.record("remote.encode", key, p.tr.newID(), p.hooks.exp.Load(), start, end, "")
	return body
}

// RoundTrip returns once the response headers are in; the client reads the
// body afterwards, so this is the wire time up to the headers.
func (p *remoteProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(r)
	end := time.Now()
	key, note := "", r.URL.Path
	if resp != nil {
		key = resp.Header.Get("X-Ipex-Key")
		note = fmt.Sprintf("%s %d", r.URL.Path, resp.StatusCode)
	}
	p.mu.Lock()
	p.wire += end.Sub(start)
	parent := p.inCell[key]
	p.mu.Unlock()
	p.tr.record("remote.wire", key, p.tr.newID(), parent, start, end, note)
	return resp, err
}
