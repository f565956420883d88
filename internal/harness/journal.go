package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"ipex/internal/nvp"
)

// Schema identifies the journal line layout; bump on incompatible change.
// A journal whose header names a different schema is rejected on resume —
// replaying entries written by a different layout would silently corrupt a
// sweep.
const Schema = "ipex-journal/v1"

// Entry kinds. A header line opens every journal; cell lines carry a
// replayable result; fail lines record a cell that was given up on (panic
// or exhausted retries) and is re-run on resume.
const (
	KindHeader = "header"
	KindCell   = "cell"
	KindFail   = "fail"
)

// Sink receives journal entries. *Journal is the durable file-backed
// implementation; the distributed layer (internal/dist) supplies in-memory
// logs that stream entries to a coordinator instead of (or in addition to)
// a local file. A Supervisor writes through this interface so the two are
// interchangeable.
type Sink interface {
	Append(Entry) error
}

// Entry is one journal line.
type Entry struct {
	Kind string `json:"kind"`
	// Schema and Sweep are set on the header line only: the layout version
	// and the content hash of the sweep definition (scale, trace seed, app
	// list, supervision knobs). A resume against a different sweep hash is
	// rejected — the journaled cells belong to a different experiment.
	Schema string `json:"schema,omitempty"`
	Sweep  string `json:"sweep,omitempty"`

	// Key is the cell's content-hash identity (see Key); App labels it for
	// humans reading the journal.
	Key string `json:"key,omitempty"`
	App string `json:"app,omitempty"`
	// Attempts is how many times the cell ran before this entry was written
	// (1 for a first-try success).
	Attempts int `json:"attempts,omitempty"`
	// Result is the complete simulation result of a KindCell entry. JSON
	// round-trips Go float64s bit-exactly (shortest-representation
	// marshaling), so a replayed result is bit-identical to the simulated
	// one — the property the resume golden tests pin.
	Result *nvp.Result `json:"result,omitempty"`
	// Error and Stack describe a KindFail entry; Stack carries the
	// recovered panic's goroutine stack.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// Journal is an append-only JSONL record of completed sweep cells. Appends
// are concurrency-safe and atomic at the line level: each entry is written
// with a single O_APPEND write, so a crash can at worst truncate the final
// line — which resume detects and skips (the cell is simply re-run).
//
// Every line is durable before Append returns. Concurrent appenders share
// an fsync (group commit): lines are written under the mutex and synced
// outside it, and each Append waits for an fsync that started after its
// write. A KindCell line whose key an earlier cell line already carries
// waits only for that line to be durable and costs no fsync of its own —
// resume replays the key from the earlier line.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// sync makes the written lines durable: f.Sync, except in tests that
	// count or stall fsyncs.
	sync func() error

	// synced is signalled (on mu) whenever an fsync finishes.
	synced  sync.Cond
	written uint64 // lines written so far
	durable uint64 // lines covered by a finished fsync
	syncing bool   // an fsync is in flight
	// cells maps each KindCell key to the number of its first line, so a
	// repeat need only wait for that line to be durable. A KindFail line
	// drops the key: on resume it would shadow the earlier cell line.
	cells map[string]uint64
}

func newJournal(f *os.File, path string) *Journal {
	j := &Journal{f: f, path: path, sync: f.Sync, cells: make(map[string]uint64)}
	j.synced.L = &j.mu
	return j
}

// CreateJournal starts a fresh journal at path for the sweep identified by
// sweepKey. It refuses to overwrite an existing file: a prior journal is
// either resumable (pass it to ResumeJournal) or stale, and destroying it
// silently would discard exactly the progress this package exists to keep.
func CreateJournal(path, sweepKey string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("harness: journal %s already exists; resume it with -resume or remove it to start over", path)
		}
		return nil, fmt.Errorf("harness: %w", err)
	}
	j := newJournal(f, path)
	if err := j.Append(Entry{Kind: KindHeader, Schema: Schema, Sweep: sweepKey}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// ParseLine decodes and validates one journal line. It is the single line
// parser behind ResumeJournal and the distributed segment merge
// (internal/dist), and the surface FuzzJournalLine hardens: any input must
// either yield a structurally valid entry or an error, never a panic and
// never a half-valid entry (a KindCell without a key or result, say) that
// replay could mistake for a simulation.
func ParseLine(raw []byte) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return Entry{}, fmt.Errorf("harness: corrupted journal line: %w", err)
	}
	switch e.Kind {
	case KindHeader:
		if e.Schema == "" {
			return Entry{}, fmt.Errorf("harness: header line without a schema")
		}
	case KindCell:
		if e.Key == "" || e.Result == nil {
			return Entry{}, fmt.Errorf("harness: incomplete cell entry")
		}
	case KindFail:
		if e.Key == "" {
			return Entry{}, fmt.Errorf("harness: fail entry without a key")
		}
	default:
		return Entry{}, fmt.Errorf("harness: unknown journal entry kind %q", e.Kind)
	}
	return e, nil
}

// ResumeJournal reopens an existing journal for the sweep identified by
// sweepKey and loads its replayable entries. It returns the journal (opened
// for further appends), the entry map keyed by cell hash (later entries
// win; only KindCell entries carry a result — KindFail cells re-run), and
// human-readable warnings for any corrupted or truncated lines that were
// skipped. A journal whose header is missing, carries a different schema,
// or hashes a different sweep definition is rejected with a clear error.
func ResumeJournal(path, sweepKey string) (*Journal, map[string]*Entry, []string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: resuming journal: %w", err)
	}
	entries := make(map[string]*Entry)
	var warnings []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		e, perr := ParseLine(raw)
		if perr != nil {
			warnings = append(warnings, fmt.Sprintf("%s:%d: skipping corrupted journal line (%v); its cell, if any, will be re-run", path, line, perr))
			continue
		}
		switch e.Kind {
		case KindHeader:
			if e.Schema != Schema {
				return nil, nil, nil, fmt.Errorf("harness: journal %s has schema %q, this binary writes %q; re-run without -resume", path, e.Schema, Schema)
			}
			if e.Sweep != sweepKey {
				return nil, nil, nil, fmt.Errorf("harness: journal %s was written for a different sweep (journal %s, current %s): scale, seed, app set, or supervision flags changed — remove the journal or rerun the original command line", path, e.Sweep, sweepKey)
			}
			sawHeader = true
		case KindCell, KindFail:
			ec := e
			entries[e.Key] = &ec
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("harness: reading journal %s: %w", path, err)
	}
	if !sawHeader {
		return nil, nil, nil, fmt.Errorf("harness: journal %s has no valid header line; it is not a resumable journal", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: reopening journal: %w", err)
	}
	return newJournal(f, path), entries, warnings, nil
}

// Append durably writes one entry as a single JSON line. Nil-receiver safe:
// an unjournaled sweep pays one nil compare per cell.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("harness: encoding journal entry: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	// One write call per line: O_APPEND makes concurrent appends land
	// whole, and a crash mid-write can only truncate the final line.
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("harness: appending to journal: %w", err)
	}
	j.written++
	need := j.written
	switch e.Kind {
	case KindCell:
		if first, ok := j.cells[e.Key]; ok {
			need = first
		} else {
			j.cells[e.Key] = need
		}
	case KindFail:
		delete(j.cells, e.Key)
	}
	return j.waitDurable(need)
}

// waitDurable returns once line n is covered by a finished fsync. The
// caller holds j.mu. If no fsync is in flight the caller runs one for every
// line written so far, with the mutex released so that other appenders can
// write meanwhile; otherwise it waits for the running one and re-checks.
func (j *Journal) waitDurable(n uint64) error {
	for j.durable < n {
		if j.syncing {
			j.synced.Wait()
			continue
		}
		j.syncing = true
		upTo := j.written
		j.mu.Unlock()
		err := j.sync()
		j.mu.Lock()
		j.syncing = false
		if err == nil {
			j.durable = upTo
		}
		j.synced.Broadcast()
		if err != nil {
			return fmt.Errorf("harness: syncing journal: %w", err)
		}
	}
	return nil
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Close flushes and closes the journal file. Nil-receiver safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.synced.Wait()
	}
	return j.f.Close()
}
