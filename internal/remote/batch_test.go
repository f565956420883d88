package remote

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipex/internal/harness"
)

// batchCells returns n cells whose requests name their index, keyed so
// that a fake server can answer any of them.
func batchCells(n int) []harness.RemoteCell {
	cells := make([]harness.RemoteCell, n)
	for i := range cells {
		cells[i] = harness.RemoteCell{Key: cellKey(i), Label: "fft", Req: []byte(fmt.Sprintf(`{"app":"fft","n":%d}`, i))}
	}
	return cells
}

func cellKey(i int) string { return fmt.Sprintf("%032x", i+1) }

// cellBody is the result body a fake server answers cell i with.
func cellBody(i int) string { return fmt.Sprintf(`{"App":"fft","Cycles":%d,"Completed":true}`, 100+i) }

// indexOf recovers a cell index from its request line.
func indexOf(t *testing.T, req string) int {
	var i int
	if _, err := fmt.Sscanf(req, `{"app":"fft","n":%d}`, &i); err != nil {
		t.Errorf("unexpected request %q", req)
	}
	return i
}

// fakeFleet is one fake ipexd: batch answers a /v1/batch stream (nil
// means the default: every frame verified) and run answers /v1/run (nil
// means the default verified answer).
type fakeFleet struct {
	batch      func(w http.ResponseWriter, r *http.Request, idx []int)
	run        func(w http.ResponseWriter, r *http.Request, i int)
	batches    atomic.Int64
	runs       atomic.Int64
	batchItems atomic.Int64
}

func (f *fakeFleet) serve(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/batch":
			f.batches.Add(1)
			var idx []int
			sc := bufio.NewScanner(r.Body)
			for sc.Scan() {
				idx = append(idx, indexOf(t, sc.Text()))
			}
			f.batchItems.Add(int64(len(idx)))
			if f.batch != nil {
				f.batch(w, r, idx)
				return
			}
			for _, i := range idx {
				_ = WriteBatchFrame(w, cellKey(i), http.StatusOK, "hit", []byte(cellBody(i)))
			}
		case "/v1/run":
			f.runs.Add(1)
			var sb strings.Builder
			sc := bufio.NewScanner(r.Body)
			for sc.Scan() {
				sb.WriteString(sc.Text())
			}
			i := indexOf(t, sb.String())
			if f.run != nil {
				f.run(w, r, i)
				return
			}
			serveVerified(w, cellKey(i), cellBody(i))
		default:
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// runCells runs every cell through RunRemote concurrently, as pool workers
// would, and checks each answer.
func runCells(t *testing.T, c *Client, cells []harness.RemoteCell) {
	t.Helper()
	var wg sync.WaitGroup
	for i, cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, handled, err := c.RunRemote(cell.Key, cell.Label, cell.Req)
			if err != nil || !handled || res.Cycles != uint64(100+i) {
				t.Errorf("cell %d: handled %v, err %v, cycles %d", i, handled, err, res.Cycles)
			}
		}()
	}
	wg.Wait()
}

// TestPrefetchAnswersFromBatch pins the fast path: a prefetched batch
// answers every cell from its frames, one attempt per cell, with no
// per-cell request, and release forgets the batch.
func TestPrefetchAnswersFromBatch(t *testing.T) {
	f := &fakeFleet{}
	ts := f.serve(t)
	c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, HedgeAfter: time.Minute})
	cells := batchCells(MaxBatchItems + 5)
	release := c.PrefetchRemote(cells)
	runCells(t, c, cells)
	release()

	s := c.Snapshot()
	n := uint64(len(cells))
	if s.Batched != n || s.CellsRemote != n || s.Attempts != n || s.OK != n || s.Hedges != 0 {
		t.Fatalf("snapshot %+v, want %d cells answered from batches in %d attempts", s, n, n)
	}
	checkPartition(t, s)
	if got := f.batches.Load(); got != 2 {
		t.Fatalf("%d batch requests for %d cells, want 2 (chunks of %d)", got, n, MaxBatchItems)
	}
	if f.runs.Load() != 0 {
		t.Fatalf("%d per-cell requests for prefetched cells", f.runs.Load())
	}
	if c.prefetched(cells[0].Key) != nil {
		t.Fatal("release left the batch registered")
	}
	// After release the per-cell path serves the key again.
	if _, handled, err := c.RunRemote(cells[0].Key, "fft", cells[0].Req); !handled || err != nil || f.runs.Load() != 1 {
		t.Fatalf("per-cell path after release: handled %v, err %v, %d runs", handled, err, f.runs.Load())
	}
}

// TestPrefetchLateFrameHedged pins the hedge: a frame that has not arrived
// within HedgeAfter is raced by the per-cell path, which wins here; the
// stream still running at release is cancelled without a breaker verdict.
func TestPrefetchLateFrameHedged(t *testing.T) {
	f := &fakeFleet{batch: func(w http.ResponseWriter, r *http.Request, _ []int) {
		w.WriteHeader(http.StatusOK)
		<-r.Context().Done() // never answers
	}}
	ts := f.serve(t)
	c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, HedgeAfter: 10 * time.Millisecond})
	cells := batchCells(3)
	release := c.PrefetchRemote(cells)
	runCells(t, c, cells)
	release()

	s := c.Snapshot()
	if s.Hedges != 3 || s.HedgeWins != 3 || s.Batched != 0 || s.CellsRemote != 3 {
		t.Fatalf("snapshot %+v, want 3 hedges, all won by the per-cell path", s)
	}
	if s.Cancelled != 3 || s.OK != 3 {
		t.Fatalf("snapshot %+v, want the 3 batched attempts cancelled and 3 per-cell attempts ok", s)
	}
	checkPartition(t, s)
	if st := c.servers[0].br.current(); st != breakerClosed {
		t.Fatalf("a released stream moved the breaker to %s", st)
	}
}

// TestPrefetchFrameWinsRace pins the other side of the race: the frame
// arrives after the hedge launched, so the per-cell attempt is cancelled
// and drained before RunRemote returns.
func TestPrefetchFrameWinsRace(t *testing.T) {
	f := &fakeFleet{
		batch: func(w http.ResponseWriter, r *http.Request, idx []int) {
			time.Sleep(200 * time.Millisecond)
			for _, i := range idx {
				_ = WriteBatchFrame(w, cellKey(i), http.StatusOK, "hit", []byte(cellBody(i)))
			}
		},
		run: func(w http.ResponseWriter, r *http.Request, _ int) {
			<-r.Context().Done() // the per-cell path never answers
		},
	}
	ts := f.serve(t)
	c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, HedgeAfter: 5 * time.Millisecond})
	cells := batchCells(2)
	release := c.PrefetchRemote(cells)
	runCells(t, c, cells)
	s := c.Snapshot()
	release()

	if s.Hedges != 2 || s.HedgeWins != 0 || s.Batched != 2 || s.CellsRemote != 2 {
		t.Fatalf("snapshot %+v, want 2 hedges both lost to their frames", s)
	}
	if s.Attempts != 4 || s.OK != 2 || s.Cancelled != 2 {
		t.Fatalf("snapshot %+v, want 2 batched attempts ok and 2 per-cell attempts cancelled", s)
	}
	checkPartition(t, s)
}

// TestPrefetchBrokenStreamFallsBack pins the failure path: a stream whose
// second frame fails its checksum answers the first cell and leaves the
// rest to the per-cell path, reporting once to the breaker.
func TestPrefetchBrokenStreamFallsBack(t *testing.T) {
	f := &fakeFleet{batch: func(w http.ResponseWriter, r *http.Request, idx []int) {
		_ = WriteBatchFrame(w, cellKey(idx[0]), http.StatusOK, "hit", []byte(cellBody(idx[0])))
		fmt.Fprintf(w, `{"key":%q,"status":200,"sha256":"%064x","len":%d}`+"\n%s", cellKey(idx[1]), 0, len(cellBody(idx[1])), cellBody(idx[1]))
	}}
	ts := f.serve(t)
	c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, HedgeAfter: time.Minute, FailThreshold: 2})
	cells := batchCells(4)
	release := c.PrefetchRemote(cells)
	runCells(t, c, cells)
	release()

	s := c.Snapshot()
	if s.Batched != 1 || s.CellsRemote != 4 || s.VerifyErrors != 3 || s.OK != 4 || s.Attempts != 7 {
		t.Fatalf("snapshot %+v, want 1 batched cell, 3 verify failures and 3 per-cell answers", s)
	}
	checkPartition(t, s)
	if f.runs.Load() != 3 {
		t.Fatalf("%d per-cell requests, want 3", f.runs.Load())
	}
	// One breaker failure, then three per-cell successes: still closed with
	// a threshold of two.
	if st := c.servers[0].br.current(); st != breakerClosed {
		t.Fatalf("breaker %s after one broken stream", st)
	}
}

// TestPrefetchStatusFrames pins per-item statuses: a 429 frame or a
// whole-batch 429 sends its cells down the per-cell path without a breaker
// verdict.
func TestPrefetchStatusFrames(t *testing.T) {
	var whole atomic.Bool
	f := &fakeFleet{batch: func(w http.ResponseWriter, r *http.Request, idx []int) {
		if whole.Load() {
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		for _, i := range idx {
			if i == 1 {
				_ = WriteBatchFrame(w, "", http.StatusTooManyRequests, "", []byte("busy"))
				continue
			}
			_ = WriteBatchFrame(w, cellKey(i), http.StatusOK, "hit", []byte(cellBody(i)))
		}
	}}
	ts := f.serve(t)
	c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, HedgeAfter: time.Minute, FailThreshold: 1})
	cells := batchCells(3)
	release := c.PrefetchRemote(cells)
	runCells(t, c, cells)
	release()
	s := c.Snapshot()
	if s.Batched != 2 || s.StatusErrors != 1 || f.runs.Load() != 1 {
		t.Fatalf("snapshot %+v with %d per-cell requests, want the 429 item alone per-cell", s, f.runs.Load())
	}

	whole.Store(true)
	release = c.PrefetchRemote(cells)
	runCells(t, c, cells)
	release()
	s = c.Snapshot()
	if s.Batched != 2 || s.StatusErrors != 4 || f.runs.Load() != 4 {
		t.Fatalf("snapshot %+v with %d per-cell requests, want every cell of the refused batch per-cell", s, f.runs.Load())
	}
	checkPartition(t, s)
	if st := c.servers[0].br.current(); st != breakerClosed {
		t.Fatalf("429s moved the breaker to %s", st)
	}
}

// TestPrefetchSkipsOpenBreaker pins routing: only servers whose breaker is
// closed get a batch; cells whose primary is open keep the per-cell path.
func TestPrefetchSkipsOpenBreaker(t *testing.T) {
	f := &fakeFleet{}
	ts := f.serve(t)
	c, _ := newTestClient(t, Options{Servers: []string{ts.URL}, FailThreshold: 1})
	c.servers[0].br.report(false, false)
	release := c.PrefetchRemote(batchCells(3))
	release()
	if f.batches.Load() != 0 || c.Snapshot().Attempts != 0 {
		t.Fatalf("a server with an open breaker got %d batch(es)", f.batches.Load())
	}
}
