// Package faultnet is the network counterpart of internal/fault: a seeded,
// deterministic chaos proxy that sits between a fleet client and an ipexd
// server and injects the failures a real network delivers — added latency,
// dropped and reset connections, truncated and corrupted response bodies,
// 429 storms, and blackholes that accept a request and never answer.
//
// The proxy is a raw TCP relay, not an HTTP middleware: faults land at the
// byte level (a truncation cuts a response mid-body; a corruption flips
// bytes inside it), which is exactly what the client's envelope
// verification (key + sha256 + strict decode) must catch. Every fault
// decision is drawn from an rng seeded per accepted connection as
// seed ^ connection-index, so a chaos run replays identically: same seed,
// same workload order, same injected faults.
//
// The chaos suite (cmd/ipexd remote tests, `make remote-smoke`) pins the
// system-level contract: a sweep run through faultnet proxies is
// byte-identical to the local golden run with zero failed cells — every
// injected fault is absorbed by retries, hedging, breakers, or local
// fallback, never surfaced as a wrong result.
package faultnet

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ipex/internal/rng"
	"ipex/internal/trace"
)

// Config selects the fault mix. All probabilities are per accepted
// connection, drawn in the order declared here (drop, reset, blackhole,
// reject, latency, truncate, corrupt), so a given seed and connection index
// always produce the same fault. Zero values inject nothing: the proxy is a
// transparent relay.
type Config struct {
	// Seed drives every fault decision; connection i draws from
	// rng.New(Seed ^ i). Zero means 1.
	Seed uint64

	// DropProb closes the client connection immediately, before reading a
	// byte (connection refused, from the client's point of view).
	DropProb float64
	// ResetProb forwards the request but resets the client connection
	// before relaying the response (connection reset by peer mid-response).
	ResetProb float64
	// BlackholeProb reads the request and then holds the connection silent
	// for MaxHold without answering — the fault only a client-side timeout
	// or hedge can beat.
	BlackholeProb float64
	// MaxHold bounds a blackhole (default 2s; keep it above the client's
	// hedge delay and below its timeout to exercise hedging).
	MaxHold time.Duration
	// Reject429Prob answers a canned HTTP 429 with Retry-After instead of
	// proxying — a backpressure storm.
	Reject429Prob float64
	// RetryAfterSecs is the canned 429's Retry-After value (default 1).
	RetryAfterSecs int
	// LatencyProb delays relaying the request by Latency (default 50ms).
	LatencyProb float64
	Latency     time.Duration
	// TruncateProb cuts the relayed response after roughly half its bytes
	// and closes the connection (a torn body the sha256 check must catch).
	TruncateProb float64
	// CorruptProb flips bytes in the relayed response body, leaving headers
	// intact (a plausible-looking but wrong payload).
	CorruptProb float64
}

// Counters tallies injected faults, for asserting a chaos run actually
// exercised each path.
type Counters struct {
	Conns      atomic.Uint64
	Relayed    atomic.Uint64
	Drops      atomic.Uint64
	Resets     atomic.Uint64
	Blackholes atomic.Uint64
	Rejects    atomic.Uint64
	Delays     atomic.Uint64
	Truncates  atomic.Uint64
	Corrupts   atomic.Uint64
}

// Snapshot is a point-in-time copy of Counters.
type Snapshot struct {
	Conns, Relayed, Drops, Resets, Blackholes, Rejects, Delays, Truncates, Corrupts uint64
}

// Snapshot reads every counter (individually; not a consistent cut).
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Conns:      c.Conns.Load(),
		Relayed:    c.Relayed.Load(),
		Drops:      c.Drops.Load(),
		Resets:     c.Resets.Load(),
		Blackholes: c.Blackholes.Load(),
		Rejects:    c.Rejects.Load(),
		Delays:     c.Delays.Load(),
		Truncates:  c.Truncates.Load(),
		Corrupts:   c.Corrupts.Load(),
	}
}

// Injected reports the total number of injected faults.
func (s Snapshot) Injected() uint64 {
	return s.Drops + s.Resets + s.Blackholes + s.Rejects + s.Delays + s.Truncates + s.Corrupts
}

// String renders the grep-able summary line cmd/faultnet prints on exit.
func (s Snapshot) String() string {
	return fmt.Sprintf("faultnet: conns=%d relayed=%d drops=%d resets=%d blackholes=%d rejects=%d delays=%d truncates=%d corrupts=%d",
		s.Conns, s.Relayed, s.Drops, s.Resets, s.Blackholes, s.Rejects, s.Delays, s.Truncates, s.Corrupts)
}

// fault is the per-connection verdict.
type fault int

const (
	faultNone fault = iota
	faultDrop
	faultReset
	faultBlackhole
	faultReject429
	faultTruncate
	faultCorrupt
)

// Proxy is one running chaos proxy: a listener relaying to a single
// upstream address with Config's fault mix.
type Proxy struct {
	cfg      Config
	upstream string
	ln       net.Listener
	connSeq  atomic.Uint64
	closed   atomic.Bool
	wg       sync.WaitGroup

	// Counters tallies injected faults; read it via Snapshot.
	Counters Counters
}

// Listen starts a proxy on addr (e.g. "127.0.0.1:0") relaying to upstream
// ("host:port"). Close it when done.
func Listen(addr, upstream string, cfg Config) (*Proxy, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxHold <= 0 {
		cfg.MaxHold = 2 * time.Second
	}
	if cfg.RetryAfterSecs <= 0 {
		cfg.RetryAfterSecs = 1
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 50 * time.Millisecond
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("faultnet: %w", err)
	}
	p := &Proxy{cfg: cfg, upstream: upstream, ln: ln}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (dial this instead of the
// upstream).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting and waits for in-flight connections to finish.
func (p *Proxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.ln.Close()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		seq := p.connSeq.Add(1)
		p.Counters.Conns.Add(1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(conn, seq)
		}()
	}
}

// draw picks this connection's fault (and latency verdict) from its own
// seeded rng. Order is fixed; see Config.
func (p *Proxy) draw(seq uint64) (fault, bool) {
	r := rng.New(p.cfg.Seed ^ seq)
	switch {
	case r.Float64() < p.cfg.DropProb:
		return faultDrop, false
	case r.Float64() < p.cfg.ResetProb:
		return faultReset, false
	case r.Float64() < p.cfg.BlackholeProb:
		return faultBlackhole, false
	case r.Float64() < p.cfg.Reject429Prob:
		return faultReject429, false
	}
	delayed := r.Float64() < p.cfg.LatencyProb
	switch {
	case r.Float64() < p.cfg.TruncateProb:
		return faultTruncate, delayed
	case r.Float64() < p.cfg.CorruptProb:
		return faultCorrupt, delayed
	}
	return faultNone, delayed
}

// serve handles one client connection end to end.
func (p *Proxy) serve(client net.Conn, seq uint64) {
	defer client.Close()
	verdict, delayed := p.draw(seq)

	switch verdict {
	case faultDrop:
		p.Counters.Drops.Add(1)
		return
	case faultBlackhole:
		// Read (and discard) whatever the client sends, then hold the line
		// silent: the client's deadline or hedge must save it. The hold is
		// bounded so a proxy shutdown does not hang on blackholed conns.
		p.Counters.Blackholes.Add(1)
		_ = client.SetReadDeadline(trace.Deadline(p.cfg.MaxHold))
		_, _ = io.Copy(io.Discard, client)
		return
	case faultReject429:
		p.Counters.Rejects.Add(1)
		p.reject429(client)
		return
	}

	if delayed {
		p.Counters.Delays.Add(1)
		trace.Sleep(context.Background(), p.cfg.Latency)
	}

	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		// Upstream genuinely down: indistinguishable from a drop for the
		// client, which is the point of the kill-a-server chaos tests.
		p.Counters.Drops.Add(1)
		return
	}
	defer up.Close()

	// Client → upstream relay runs concurrently (requests are small; the
	// interesting faults land on the response path below).
	go func() {
		_, _ = io.Copy(up, client)
		// Half-close so the upstream sees EOF on the request stream without
		// tearing down its response direction.
		if tc, ok := up.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()

	switch verdict {
	case faultReset:
		p.Counters.Resets.Add(1)
		// Relay a little of the response, then hard-reset the client so it
		// sees a mid-body connection reset rather than a clean close.
		_, _ = io.CopyN(client, up, 64)
		abort(client)
		return
	case faultTruncate:
		p.Counters.Truncates.Add(1)
		p.truncate(client, up)
		return
	case faultCorrupt:
		p.Counters.Corrupts.Add(1)
		p.corrupt(client, up, seq)
		return
	}
	p.Counters.Relayed.Add(1)
	_, _ = io.Copy(client, up)
}

// reject429 answers a canned backpressure storm response without touching
// the upstream. Connection: close keeps the exchange single-shot.
func (p *Proxy) reject429(client net.Conn) {
	// Drain the request first so the client does not see a reset while
	// still writing its body.
	_ = client.SetReadDeadline(trace.Deadline(time.Second))
	buf := make([]byte, 4096)
	for {
		n, err := client.Read(buf)
		if err != nil || n == 0 {
			break
		}
		if endOfRequest(buf[:n]) {
			break
		}
	}
	body := "faultnet: injected 429 storm\n"
	fmt.Fprintf(client, "HTTP/1.1 429 Too Many Requests\r\nRetry-After: %d\r\nContent-Type: text/plain\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		p.cfg.RetryAfterSecs, len(body), body)
}

// endOfRequest detects a complete small JSON request heuristically: the
// /v1/run bodies this proxy fronts are single-line JSON objects, so a
// closing brace at the read tail is good enough for a chaos rig (a wrong
// guess only means the 429 races the tail of the upload, which real storms
// do too).
func endOfRequest(b []byte) bool {
	for i := len(b) - 1; i >= 0; i-- {
		switch b[i] {
		case '\n', '\r', ' ':
		case '}':
			return true
		default:
			return false
		}
	}
	return false
}

// truncate relays roughly half the upstream's response, then closes —
// a torn body with intact-looking headers.
func (p *Proxy) truncate(client net.Conn, up net.Conn) {
	data, _ := io.ReadAll(up)
	if len(data) == 0 {
		return
	}
	cut := len(data) / 2
	if cut == 0 {
		cut = 1
	}
	_, _ = client.Write(data[:cut])
}

// corrupt relays the full response with bytes flipped past the header
// block: headers (including the sha256 the client checks) arrive intact,
// the body does not.
func (p *Proxy) corrupt(client net.Conn, up net.Conn, seq uint64) {
	data, _ := io.ReadAll(up)
	if len(data) == 0 {
		return
	}
	// Find the end of the HTTP header block; corrupt only past it so the
	// fault reaches the client's envelope verification rather than breaking
	// HTTP framing (both are injected elsewhere via reset/truncate).
	start := headerEnd(data)
	if start >= len(data) {
		start = len(data) - 1
	}
	r := rng.New(p.cfg.Seed ^ seq ^ 0x9e3779b97f4a7c15)
	flips := 1 + int(r.Uint64()%8)
	for i := 0; i < flips; i++ {
		pos := start + int(r.Uint64()%uint64(len(data)-start))
		data[pos] ^= byte(1 + r.Uint64()%255)
	}
	_, _ = client.Write(data)
}

// headerEnd returns the index just past the first CRLFCRLF (or 0 when the
// response has no header block — then anything goes).
func headerEnd(b []byte) int {
	for i := 0; i+3 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' && b[i+2] == '\r' && b[i+3] == '\n' {
			return i + 4
		}
	}
	return 0
}

// abort hard-resets a TCP connection (SO_LINGER 0 → RST on close), so the
// peer sees "connection reset by peer" instead of a graceful EOF.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}
