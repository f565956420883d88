package remote

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/trace"
)

// The /v1/batch wire format. A request body is JSONL: one /v1/run body per
// line, at most MaxBatchItems lines and MaxBatchBody bytes, streamed: the
// server reads and resolves one line at a time while the client is still
// sending later ones. The response is one frame per item, in request order,
// each written and flushed as soon as its item is resolved:
//
//	{"key":…,"status":200,"cache":"hit","sha256":…,"len":N}\n
//	<N body bytes>
//
// A 200 frame's body is the same result bytes /v1/run serves for the item;
// any other status carries an error message. Every frame is verified like a
// /v1/run response — key echo, SHA-256 over the body, strict decode. A
// frame whose framing, checksum or key echo fails ends the stream: its cell
// and every later one go back to the per-cell path. A body that fails only
// the strict decode sends its own cell back.
const (
	// MaxBatchItems caps the items of one /v1/batch request. The client
	// sends at most this many per stream; the server answers any excess
	// item with a 413 frame.
	MaxBatchItems = 128
	// MaxBatchBody caps a /v1/batch request body (a legitimate item is a
	// few hundred bytes).
	MaxBatchBody = 1 << 20
	// maxFrameHeader bounds one frame header line.
	maxFrameHeader = 4 << 10
	// batchLead is how many items a stream sends ahead of the cells its
	// workers have asked for. The server resolves an item only once its
	// line arrives, so it never runs far ahead of the workers: it blocks
	// reading the next line instead of holding a CPU the client needs to
	// read the frames already written.
	batchLead = 4
)

// BatchFrame is the header line of one /v1/batch response frame.
type BatchFrame struct {
	Key    string `json:"key"`
	Status int    `json:"status"`
	Cache  string `json:"cache,omitempty"`
	SHA256 string `json:"sha256"`
	Len    int    `json:"len"`
}

// WriteBatchFrame writes one frame: its header line, then body.
func WriteBatchFrame(w io.Writer, key string, status int, cache string, body []byte) error {
	sum := sha256.Sum256(body)
	hdr, err := json.Marshal(BatchFrame{Key: key, Status: status, Cache: cache,
		SHA256: hex.EncodeToString(sum[:]), Len: len(body)})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readBatch reads the frames answering the cells keyed keys, in order, and
// hands each frame whose checksum verifies to got, with its body: a 200
// frame only when it echoes its cell's key. The body is valid until got
// returns. readBatch returns how many frames it delivered and, when that is
// fewer than len(keys), the outcome kind and error that leave the rest
// unanswered. A frame that fails verification is not delivered. The strict
// decode of a 200 body is decodeResult's, run by the cell's consumer.
func readBatch(r io.Reader, keys []string, got func(i int, f BatchFrame, body []byte)) (int, outcomeKind, error) {
	br := bufio.NewReaderSize(r, maxFrameHeader)
	var body []byte
	for i, key := range keys {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				return i, outcomeVerify, fmt.Errorf("frame %d: header longer than %d bytes", i, maxFrameHeader)
			}
			return i, outcomeNet, fmt.Errorf("frame %d: %w", i, eofUnexpected(err))
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var f BatchFrame
		if err := dec.Decode(&f); err != nil {
			return i, outcomeVerify, fmt.Errorf("frame %d: decoding header: %w", i, err)
		}
		if f.Len < 0 || f.Len > maxResultBody {
			return i, outcomeVerify, fmt.Errorf("frame %d: body length %d out of range", i, f.Len)
		}
		if cap(body) < f.Len {
			body = make([]byte, f.Len)
		}
		body = body[:f.Len]
		if _, err := io.ReadFull(br, body); err != nil {
			return i, outcomeNet, fmt.Errorf("frame %d: reading body: %w", i, eofUnexpected(err))
		}
		sum := sha256.Sum256(body)
		if f.SHA256 != hex.EncodeToString(sum[:]) {
			return i, outcomeVerify, fmt.Errorf("frame %d: body checksum mismatch (%d bytes)", i, f.Len)
		}
		if f.Status == http.StatusOK && f.Key != key {
			return i, outcomeVerify, fmt.Errorf("frame %d: key mismatch: want %s, got %q", i, key, f.Key)
		}
		got(i, f, body)
	}
	return len(keys), outcomeOK, nil
}

// decodeResult is the strict decode every verified result body passes,
// from /v1/run and /v1/batch alike.
func decodeResult(body []byte) (nvp.Result, error) {
	var res nvp.Result
	err := decodeStrict(body, &res)
	return res, err
}

// eofUnexpected turns a clean EOF mid-stream into io.ErrUnexpectedEOF: the
// server ended the response before answering every item.
func eofUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// future is one prefetched cell. done closes once its stream has a verdict:
// body holds the frame's checksummed, key-echoing 200 body, or is nil when
// the stream gave up on the cell (already counted as a failed attempt).
// settle decodes the body once — on the consumer's goroutine, not the
// stream's, so a stream never holds up the workers it feeds — and counts
// the attempt.
type future struct {
	done chan struct{}
	body []byte
	// bs and i place the future in its stream, so that waiting for it
	// asks the stream for the lines up to it (see batchStream.demand).
	bs *batchStream
	i  int

	once sync.Once
	res  nvp.Result
	ok   bool
}

// settle strictly decodes a future whose stream is done, counts its
// attempt, and reports whether it holds a verified result. Safe to call
// more than once and from several goroutines.
func (c *Client) settle(f *future) bool {
	f.once.Do(func() {
		if f.body == nil {
			return
		}
		res, err := decodeResult(f.body)
		f.body = nil
		if err != nil {
			c.bucket(outcomeVerify, f.bs.s)
			if f.bs.s.br.report(false, false) {
				c.brOpens.Inc()
			}
			return
		}
		c.okAttempts.Inc()
		f.res, f.ok = res, true
	})
	return f.ok
}

// primary is rank(key)[0], without ranking the rest.
func (c *Client) primary(key string) *serverState {
	var best *serverState
	var bestH uint64
	for _, s := range c.servers {
		if h := rendezvous(key, s.url); best == nil || h > bestH || (h == bestH && s.url < best.url) {
			best, bestH = s, h
		}
	}
	return best
}

// PrefetchRemote implements harness.RemotePrefetcher. It groups cells by
// their rendezvous primary and opens one streamed POST /v1/batch per group
// of at most MaxBatchItems cells on a server whose breaker is closed. A
// later RunRemote of a batched key waits for its frame (see awaitBatch);
// every other cell — a key some running prefetch already covers included —
// keeps its path. The harness offers each key once per call. release
// cancels the streams still running, waits for them, counts every frame
// no one consumed, and forgets the batch.
func (c *Client) PrefetchRemote(cells []harness.RemoteCell) (release func()) {
	groups := make(map[*serverState][]harness.RemoteCell)
	for _, cell := range cells {
		if c.prefetched(cell.Key) != nil {
			continue
		}
		if s := c.primary(cell.Key); s.br.current() == breakerClosed {
			groups[s] = append(groups[s], cell)
		}
	}
	ctx, cancel := context.WithCancel(c.base)
	var wg sync.WaitGroup
	var mine []*batchStream
	c.mu.Lock()
	for _, s := range c.servers {
		group := groups[s]
		for len(group) > 0 {
			chunk := group[:min(len(group), MaxBatchItems)]
			group = group[len(chunk):]
			bs := &batchStream{c: c, s: s, cells: chunk, fs: make([]*future, len(chunk)),
				wake: make(chan struct{}, 1), want: batchLead}
			for i, cell := range chunk {
				bs.fs[i] = &future{done: make(chan struct{}), bs: bs, i: i}
				c.pending[cell.Key] = bs.fs[i]
			}
			mine = append(mine, bs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				bs.run(ctx)
			}()
		}
	}
	c.mu.Unlock()
	return func() {
		cancel()
		wg.Wait()
		c.mu.Lock()
		for _, bs := range mine {
			for i, f := range bs.fs {
				c.settle(f)
				if c.pending[bs.cells[i].Key] == f {
					delete(c.pending, bs.cells[i].Key)
				}
			}
		}
		c.mu.Unlock()
	}
}

// prefetched returns key's pending batch future, or nil.
func (c *Client) prefetched(key string) *future {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[key]
}

// batchStream is one POST /v1/batch: its cells, their futures, and how
// far the request body has got. The body is paced by demand: it holds the
// lines up to batchLead past the furthest cell a worker has waited for.
type batchStream struct {
	c     *Client
	s     *serverState
	cells []harness.RemoteCell
	fs    []*future

	mu sync.Mutex
	// want is how many lines the body should hold; sent how many it does;
	// answered how many frames have arrived.
	want, sent, answered int
	wake                 chan struct{}
	stall                *time.Timer
	stalled              bool
}

// demand asks for the lines up to batchLead past cell i.
func (bs *batchStream) demand(i int) {
	bs.mu.Lock()
	if w := i + 1 + batchLead; w > bs.want {
		bs.want = w
		select {
		case bs.wake <- struct{}{}:
		default:
		}
	}
	bs.mu.Unlock()
}

// owed (re)arms the stall timer while sent lines await their frames and
// stops it otherwise: a stream that is owed nothing is waiting for its
// workers, not for the server. Called with bs.mu held.
func (bs *batchStream) owed() {
	if bs.stall == nil {
		return
	}
	if bs.answered < bs.sent {
		bs.stall.Reset(bs.c.hc.Timeout)
	} else {
		bs.stall.Stop()
	}
}

// feed writes the body's lines to w as demand allows, then closes it.
func (bs *batchStream) feed(ctx context.Context, w *io.PipeWriter) {
	for {
		bs.mu.Lock()
		if bs.sent == len(bs.cells) {
			bs.mu.Unlock()
			w.Close()
			return
		}
		if bs.sent >= bs.want {
			bs.mu.Unlock()
			select {
			case <-bs.wake:
				continue
			case <-ctx.Done():
				w.CloseWithError(ctx.Err())
				return
			}
		}
		line := bs.cells[bs.sent].Req
		bs.sent++
		bs.owed()
		bs.mu.Unlock()
		if _, err := w.Write(append(line[:len(line):len(line)], '\n')); err != nil {
			return
		}
	}
}

// run sends the stream and resolves each cell's future as its frame
// arrives. Each cell counts as one attempt, bucketed once: by settle for a
// 200 frame, here for anything else. A stream that fails — an HTTP error,
// a broken or unverifiable frame, no frame within the per-attempt Timeout
// while one is owed — resolves its remaining futures unanswered, so those
// cells take the per-cell path, and reports to the server's breaker once;
// a stream that answers every item reports one success.
func (bs *batchStream) run(ctx context.Context) {
	c, s, fs := bs.c, bs.s, bs.fs
	c.attempts.Add(uint64(len(fs)))
	s.attempts.Add(uint64(len(fs)))
	keys := make([]string, len(bs.cells))
	for i, cell := range bs.cells {
		keys[i] = cell.Key
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if c.hc.Timeout > 0 {
		bs.mu.Lock()
		bs.stall = trace.StoppedTimer(c.hc.Timeout, func() {
			bs.mu.Lock()
			bs.stalled = true
			bs.mu.Unlock()
			cancel()
		})
		bs.mu.Unlock()
		defer bs.stall.Stop()
	}
	pr, pw := io.Pipe()
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		bs.feed(ctx, pw)
	}()
	defer func() {
		// Unblock and wait for the feeder, so nothing of the stream
		// outlives release.
		pr.CloseWithError(context.Canceled)
		cancel()
		<-fed
	}()

	n := 0
	kind, code, err := func() (outcomeKind, int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/batch", pr)
		if err != nil {
			return outcomeNet, 0, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.streamHC.Do(req)
		if err != nil {
			return outcomeNet, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return outcomeStatus, resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", s.url, resp.StatusCode, firstLine(msg))
		}
		var kind outcomeKind
		n, kind, err = readBatch(resp.Body, keys, func(i int, f BatchFrame, b []byte) {
			bs.mu.Lock()
			bs.answered++
			bs.owed()
			bs.mu.Unlock()
			if f.Status == http.StatusOK {
				fs[i].body = bytes.Clone(b)
			} else {
				c.bucket(outcomeStatus, s)
			}
			close(fs[i].done)
		})
		if err != nil {
			return kind, 0, fmt.Errorf("%s: batch: %w", s.url, err)
		}
		// Read the response to its end, so the connection goes back to the
		// idle pool for the next batch instead of being closed.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxFrameHeader))
		return kind, 0, nil
	}()
	if kind == outcomeOK {
		s.br.report(true, false)
		return
	}
	bs.mu.Lock()
	stalled := bs.stalled
	bs.mu.Unlock()
	if ctx.Err() != nil && !stalled {
		// Released by the harness: nothing to say about the server.
		kind = outcomeCancel
	}
	for _, f := range fs[n:] {
		c.bucket(kind, s)
		close(f.done)
	}
	switch {
	case kind == outcomeCancel, kind == outcomeStatus && code == http.StatusTooManyRequests:
	default:
		if s.br.report(false, false) {
			c.brOpens.Inc()
		}
	}
	if c.logf != nil && kind != outcomeCancel {
		c.logf("remote: %d batched cell(s) left to the per-cell path: %v", len(fs)-n, err)
	}
}

// bucket counts one failed attempt of kind against s. Every outcome but
// OK, of a per-cell attempt or a batched cell, is counted here.
func (c *Client) bucket(kind outcomeKind, s *serverState) {
	switch kind {
	case outcomeCancel:
		c.cancelledA.Inc()
		return
	case outcomeStatus:
		c.statusErrs.Inc()
	case outcomeNet:
		c.netErrs.Inc()
	case outcomeVerify:
		c.verifyErrs.Inc()
	}
	s.failures.Inc()
}

// awaitBatch answers a prefetched cell. It waits for the cell's frame for
// at most HedgeAfter; a frame still missing by then is hedged with the
// per-cell path (counted in Hedges), and the first verified answer wins.
// A cell its stream gave up on takes the per-cell path outright.
func (c *Client) awaitBatch(f *future, key, label string, req []byte) (nvp.Result, bool, error) {
	f.bs.demand(f.i)
	select {
	case <-f.done:
	default:
		if c.hedge <= 0 {
			<-f.done
			break
		}
		t := trace.NewTimer(c.hedge)
		select {
		case <-f.done:
			t.Stop()
		case <-t.C:
			return c.raceBatch(f, key, label, req)
		}
	}
	if c.settle(f) {
		return c.batched(f)
	}
	return c.conclude(key, label, c.runCell(c.base, key, req))
}

// batched counts a cell answered from its frame.
func (c *Client) batched(f *future) (nvp.Result, bool, error) {
	c.cellsRemote.Inc()
	c.batchedCells.Inc()
	return f.res, true, nil
}

// raceBatch races a late frame against the per-cell path. When the frame
// wins, the per-cell run is cancelled and drained, so every attempt is
// bucketed once RunRemote returns.
func (c *Client) raceBatch(f *future, key, label string, req []byte) (nvp.Result, bool, error) {
	c.hedges.Inc()
	ctx, cancel := context.WithCancel(c.base)
	defer cancel()
	ch := make(chan cellOut, 1)
	go func() { ch <- c.runCell(ctx, key, req) }()
	select {
	case <-f.done:
		if c.settle(f) {
			cancel()
			<-ch
			return c.batched(f)
		}
		return c.conclude(key, label, <-ch)
	case out := <-ch:
		if out.err == nil {
			c.hedgeWins.Inc()
			return c.conclude(key, label, out)
		}
		// A failure is not an answer: the frame may still arrive.
		if <-f.done; c.settle(f) {
			return c.batched(f)
		}
		return c.conclude(key, label, out)
	}
}
