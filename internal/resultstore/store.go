// Package resultstore is the content-addressed result cache behind the
// simulation server (cmd/ipexd): an in-memory LRU tier in front of a disk
// tier, addressed by the unified cell identity key (see
// internal/experiments.CellIdentity). Because a key hashes everything that
// determines a simulation's result, a stored body may stand in for a fresh
// simulation byte for byte — the soundness rule is entirely the key's, and
// the store never serves bytes whose integrity it cannot verify.
//
// GetOrCompute coalesces concurrent misses of one key onto a single
// computation (singleflight): N identical requests in flight cost one
// simulation, and the N-1 followers receive the leader's bytes.
//
// The package is deliberately clock-free and host-agnostic: recency is
// access order (not wall time), disk writes go through benchio.AtomicFile,
// and nothing here imports net/http — serving belongs to the command layer.
package resultstore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ipex/internal/benchio"
	"ipex/internal/trace"
)

// EnvelopeSchema identifies the disk-entry layout; bump on incompatible
// change. An entry whose header names a different schema is a miss, never
// an error — the cell is simply re-simulated and the entry rewritten.
const EnvelopeSchema = "ipex-result/v1"

// Outcome classifies how a lookup was served.
type Outcome int

const (
	// OutcomeMemoryHit: the body came from the in-memory LRU tier.
	OutcomeMemoryHit Outcome = iota
	// OutcomeDiskHit: the body was read (and verified) from the disk tier
	// and promoted back into memory.
	OutcomeDiskHit
	// OutcomeComputed: both tiers missed; the caller's compute function ran
	// and its body was stored in both tiers.
	OutcomeComputed
	// OutcomeCoalesced: another caller was already computing this key; the
	// result is that computation's, shared without running compute again.
	OutcomeCoalesced
)

// String names the outcome for response headers and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeMemoryHit:
		return "hit"
	case OutcomeDiskHit:
		return "hit-disk"
	case OutcomeComputed:
		return "miss"
	case OutcomeCoalesced:
		return "coalesced"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Hit reports whether the outcome avoided a computation entirely.
func (o Outcome) Hit() bool { return o == OutcomeMemoryHit || o == OutcomeDiskHit }

// call is one in-flight computation; followers block on done.
type call struct {
	done chan struct{}
	body []byte
	err  error
}

// Store is the two-tier content-addressed cache. All methods are safe for
// concurrent use. Returned bodies are shared read-only slices: callers
// must not mutate them.
type Store struct {
	dir string // "" disables the disk tier
	cap int    // max in-memory entries (>= 1)

	mu       sync.Mutex
	lru      *list.List // of *entry; front = most recently used
	mem      map[string]*list.Element
	inflight map[string]*call

	// Counters are nil-safe handles; a Store built without a registry
	// discards them.
	memHits     *trace.Counter
	diskHits    *trace.Counter
	computed    *trace.Counter
	coalesced   *trace.Counter
	evicted     *trace.Counter
	diskEvicted *trace.Counter
	corrupt     *trace.Counter
	failures    *trace.Counter
	diskErrors  *trace.Counter

	// writeFile is the disk-tier writer, an injection seam for the
	// failing-disk tests (running as root defeats permission-based
	// injection). Production is always benchio.WriteFileAtomic.
	writeFile func(path string, data []byte, perm os.FileMode) error

	// clock, when installed via SetClock, feeds the latency histograms
	// below; nil leaves them silent, preserving the package's clock-free
	// default. Latencies go only to the registry, never into a body.
	clock           trace.Clock
	computeSeconds  *trace.Histogram
	diskReadSeconds *trace.Histogram
}

type entry struct {
	key  string
	body []byte
}

// New builds a store with an in-memory LRU of at most memEntries bodies
// (minimum 1) over a disk tier rooted at dir ("" keeps the store purely
// in-memory). The directory is created if missing. reg, when non-nil,
// receives the store.* counters (mem_hits, disk_hits, computed, coalesced,
// evicted, corrupt, failures, disk_errors).
func New(dir string, memEntries int, reg *trace.Registry) (*Store, error) {
	if memEntries < 1 {
		memEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
	}
	return &Store{
		dir:      dir,
		cap:      memEntries,
		lru:      list.New(),
		mem:      make(map[string]*list.Element),
		inflight: make(map[string]*call),

		memHits:     reg.Counter("store.mem_hits"),
		diskHits:    reg.Counter("store.disk_hits"),
		computed:    reg.Counter("store.computed"),
		coalesced:   reg.Counter("store.coalesced"),
		evicted:     reg.Counter("store.evicted"),
		diskEvicted: reg.Counter("store.disk_evicted"),
		corrupt:     reg.Counter("store.corrupt"),
		failures:    reg.Counter("store.failures"),
		diskErrors:  reg.Counter("store.disk_errors"),

		writeFile: benchio.WriteFileAtomic,

		computeSeconds:  reg.Histogram("store.compute_seconds", nil),
		diskReadSeconds: reg.Histogram("store.disk_read_seconds", nil),
	}, nil
}

// SetClock installs the monotonic clock behind the store's latency
// histograms (store.compute_seconds, store.disk_read_seconds). Call it
// before serving traffic; it is not synchronized against in-flight
// requests. A nil clock (the default) keeps the store clock-free and the
// histograms silent.
func (s *Store) SetClock(c trace.Clock) { s.clock = c }

// Rates derives the cache hit ratio and coalesce rate from the outcome
// counters, over successfully served requests (mem hits + disk hits +
// computed + coalesced). Both are 0 before the first serve. They are
// computed at read time — scrape-time gauges, not stored state.
func (s *Store) Rates() (hitRatio, coalesceRate float64) {
	mem, disk := s.memHits.Load(), s.diskHits.Load()
	co := s.coalesced.Load()
	total := mem + disk + co + s.computed.Load()
	if total == 0 {
		return 0, 0
	}
	return float64(mem+disk) / float64(total), float64(co) / float64(total)
}

// EvictDiskOver shrinks the disk tier to at most maxBytes by deleting
// entries oldest-first (modification time, then name for determinism when
// times tie). It is a startup-scan operation — the service calls it once
// before listening, so a node restarted with a smaller budget converges
// immediately — and it touches only the disk tier: the memory LRU is
// governed solely by its entry cap, so a body already promoted to memory
// keeps serving hits even after its disk entry is evicted. maxBytes <= 0
// means no cap (nothing is evicted). Dot-prefixed files (AtomicFile
// temporaries) and subdirectories are left alone.
func (s *Store) EvictDiskOver(maxBytes int64) (evicted int, freed int64, err error) {
	if s.dir == "" || maxBytes <= 0 {
		return 0, 0, nil
	}
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("resultstore: scanning disk tier: %w", err)
	}
	type diskEntry struct {
		name string
		size int64
		mod  int64
	}
	var entries []diskEntry
	var total int64
	for _, de := range dirents {
		if de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		info, ierr := de.Info()
		if ierr != nil {
			continue // raced with a concurrent delete; nothing to size
		}
		entries = append(entries, diskEntry{de.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mod != entries[j].mod {
			return entries[i].mod < entries[j].mod
		}
		return entries[i].name < entries[j].name
	})
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if rerr := os.Remove(filepath.Join(s.dir, e.name)); rerr != nil {
			if err == nil {
				err = fmt.Errorf("resultstore: evicting %s: %w", e.name, rerr)
			}
			continue
		}
		total -= e.size
		freed += e.size
		evicted++
		s.diskEvicted.Inc()
	}
	return evicted, freed, err
}

// MemLen returns the number of bodies currently in the memory tier.
func (s *Store) MemLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// DiskPath returns the disk-tier path of a key ("" when the disk tier is
// disabled). The file need not exist.
func (s *Store) DiskPath(key string) string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, key)
}

// Get looks a key up in both tiers without computing anything: memory
// first, then a verified disk read (promoted into memory on success).
func (s *Store) Get(key string) ([]byte, Outcome, bool) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		body := el.Value.(*entry).body
		s.mu.Unlock()
		s.memHits.Inc()
		return body, OutcomeMemoryHit, true
	}
	s.mu.Unlock()
	if body, ok := s.readDisk(key); ok {
		s.insert(key, body)
		s.diskHits.Inc()
		return body, OutcomeDiskHit, true
	}
	return nil, OutcomeComputed, false
}

// GetOrCompute serves key from the memory tier, the disk tier, an already
// in-flight computation of the same key (coalesced), or — last — by running
// compute and storing its body in both tiers. A compute error is returned
// to the leader and every coalesced follower, and nothing is cached: the
// next request for the key computes again.
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, Outcome, error) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		body := el.Value.(*entry).body
		s.mu.Unlock()
		s.memHits.Inc()
		return body, OutcomeMemoryHit, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		// A failed leader's followers count as failures (each caller will
		// report its own error), not as coalesced serves — the counters
		// must partition requests exactly.
		if c.err != nil {
			s.failures.Inc()
			return nil, OutcomeCoalesced, c.err
		}
		s.coalesced.Inc()
		return c.body, OutcomeCoalesced, c.err
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	outcome := OutcomeDiskHit
	body, ok := s.readDisk(key)
	if !ok {
		outcome = OutcomeComputed
		start := trace.Start(s.clock)
		body, c.err = compute()
		if c.err == nil {
			trace.Span(s.clock, s.computeSeconds, start)
		}
	}
	c.body = body
	if c.err == nil {
		if outcome == OutcomeComputed {
			// A disk-write failure (ENOSPC, permissions, dead disk) degrades
			// the entry to memory-only; the body itself is sound, so the
			// request still succeeds and is cached where it can be. It counts
			// as a disk error, not a failure — `failures` partitions request
			// outcomes, and this request succeeded.
			if werr := s.writeDisk(key, body); werr != nil {
				s.diskErrors.Inc()
			}
		}
		s.insert(key, body)
	}

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)

	if c.err != nil {
		s.failures.Inc()
		return nil, outcome, c.err
	}
	switch outcome {
	case OutcomeDiskHit:
		s.diskHits.Inc()
	case OutcomeComputed:
		s.computed.Inc()
	}
	return body, outcome, nil
}

// insert adds (or refreshes) a memory-tier entry, evicting from the LRU
// tail past capacity. Evicted bodies survive on the disk tier.
func (s *Store) insert(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[key]; ok {
		el.Value.(*entry).body = body
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(&entry{key: key, body: body})
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.mem, e.key)
		s.evicted.Inc()
	}
}

// writeDisk installs the enveloped body atomically; a crash mid-write
// leaves either the previous entry or the complete new one.
func (s *Store) writeDisk(key string, body []byte) error {
	if s.dir == "" {
		return nil
	}
	sum := sha256.Sum256(body)
	var buf bytes.Buffer
	buf.Grow(len(EnvelopeSchema) + len(key) + 2*len(sum) + 3 + len(body))
	fmt.Fprintf(&buf, "%s %s %s\n", EnvelopeSchema, key, hex.EncodeToString(sum[:]))
	buf.Write(body)
	return s.writeFile(s.DiskPath(key), buf.Bytes(), 0o644)
}

// readDisk fetches and verifies a disk-tier entry, timing the successful
// reads (a miss — usually a fast ENOENT — would only skew the latency
// series).
func (s *Store) readDisk(key string) ([]byte, bool) {
	start := trace.Start(s.clock)
	body, ok := s.loadDisk(key)
	if ok {
		trace.Span(s.clock, s.diskReadSeconds, start)
	}
	return body, ok
}

// loadDisk fetches and verifies a disk-tier entry. Any defect — missing
// file, foreign schema, key mismatch, checksum mismatch, truncation — is a
// miss: the caller re-simulates and rewrites the entry. Corruption (a file
// that exists but fails verification) is counted separately.
func (s *Store) loadDisk(key string) ([]byte, bool) {
	if s.dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(s.DiskPath(key))
	if err != nil {
		return nil, false
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		s.corrupt.Inc()
		return nil, false
	}
	var schema, k, sumHex string
	if _, err := fmt.Sscanf(string(raw[:nl]), "%s %s %s", &schema, &k, &sumHex); err != nil ||
		schema != EnvelopeSchema || k != key {
		s.corrupt.Inc()
		return nil, false
	}
	body := raw[nl+1:]
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != sumHex {
		s.corrupt.Inc()
		return nil, false
	}
	return body, true
}
