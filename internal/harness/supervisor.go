package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ipex/internal/nvp"
	"ipex/internal/trace"
)

// ErrInterrupted is wrapped by Pool.Run's error when the sweep stopped
// dispatching before every cell ran — a context cancellation (SIGINT/
// SIGTERM graceful drain) or an exhausted StopAfter budget. The journal
// written so far is resumable.
var ErrInterrupted = errors.New("sweep interrupted before all cells ran")

// ErrCellTimeout is wrapped by a cell error when the wall-clock backstop
// watchdog cancelled the run. It is transient: a timeout says more about
// the machine than the cell, so the cell is retried up to MaxRetries. The
// deterministic per-cell deadline is the cycle budget (Cell configuration
// clamps nvp.Config.MaxCycles), which truncates inside simulated time;
// this backstop exists only for a harness-level hang and never appears in
// results.
var ErrCellTimeout = errors.New("cell exceeded the wall-clock backstop")

// transientErr marks an error worth retrying.
type transientErr struct{ err error }

func (t *transientErr) Error() string { return t.err.Error() }
func (t *transientErr) Unwrap() error { return t.err }

// Transient marks err as retryable: the supervisor re-runs the cell with
// deterministic exponential backoff up to MaxRetries before giving up.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// Transient.
func IsTransient(err error) bool {
	var t *transientErr
	return errors.As(err, &t)
}

// PanicError carries a recovered cell panic and its goroutine stack. The
// supervisor never returns it to the sweep: the panic is journaled and the
// cell soft-fails (Completed=false), so one poisoned cell costs one skipped
// app, not hours of completed sweep.
type PanicError struct {
	Value string
	Stack string
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("cell panicked: %s", p.Value)
}

// Counters tracks supervision outcomes for live telemetry; all fields are
// atomics, safe to read while a sweep runs.
type Counters struct {
	// Executed counts cells that ran in this process; Replayed counts
	// cells answered from the journal without simulating: from a resumed
	// journal's entries, or from an entry this sweep already journaled for
	// the same key (see Supervisor.Journal).
	Executed atomic.Uint64
	Replayed atomic.Uint64
	// Retried counts re-runs after a transient failure or truncation;
	// Timeouts counts wall-clock backstop expiries (a subset of the
	// retries until MaxRetries is exhausted).
	Retried  atomic.Uint64
	Timeouts atomic.Uint64
	// Panics counts isolated cell panics (journaled, soft-failed);
	// Failures counts cells journaled as KindFail (panics + errors that
	// survived retrying).
	Panics   atomic.Uint64
	Failures atomic.Uint64
	// Skipped counts cells short-circuited by the Skip filter: never
	// simulated, never journaled.
	Skipped atomic.Uint64
	// Remote counts cells answered by a RemoteRunner (executed on an ipexd
	// fleet, verified, and journaled without simulating locally).
	Remote atomic.Uint64
}

// CounterSnapshot is a point-in-time copy of Counters.
type CounterSnapshot struct {
	Executed, Replayed, Retried, Timeouts, Panics, Failures, Skipped, Remote uint64
}

// Snapshot reads every counter atomically (each individually; the set is
// not a consistent cut, which telemetry does not need). Nil-safe.
func (c *Counters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	return CounterSnapshot{
		Executed: c.Executed.Load(),
		Replayed: c.Replayed.Load(),
		Retried:  c.Retried.Load(),
		Timeouts: c.Timeouts.Load(),
		Panics:   c.Panics.Load(),
		Failures: c.Failures.Load(),
		Skipped:  c.Skipped.Load(),
		Remote:   c.Remote.Load(),
	}
}

// RemoteRunner executes a cell somewhere other than this process — the
// resilient fleet client in internal/remote implements it. RunRemote
// returns handled=false to decline the cell (not remotable, fleet down,
// retry budget exhausted with local fallback enabled); the supervisor then
// runs the cell locally as if no runner were installed. handled=true with a
// non-nil error is a hard cell failure (journaled as KindFail). The
// returned result must already be verified — the supervisor journals it
// exactly as it would a local simulation.
type RemoteRunner interface {
	RunRemote(key, label string, req []byte) (res nvp.Result, handled bool, err error)
}

// RemotePrefetcher is an optional extension of RemoteRunner. Before a Pool
// dispatches a batch, it hands the runner the cells RunCell will really
// send remote, so the runner can request them in bulk and answer each later
// RunRemote from a result that has already arrived. The returned release
// ends the prefetch: it is called once the batch has finished, and drops
// whatever was fetched but not consumed.
type RemotePrefetcher interface {
	PrefetchRemote(cells []RemoteCell) (release func())
}

// RemoteCell is one cell offered to a RemotePrefetcher: its key, label and
// declarative request, exactly as RunRemote will later receive them.
type RemoteCell struct {
	Key, Label string
	Req        []byte
}

// Cell is one supervised unit of sweep work: a content-hash identity and
// the closure that simulates it. Run receives a context that is non-nil
// only when the wall-clock backstop is armed; implementations should thread
// it into nvp.RunContext so the backstop can stop a wedged run at the next
// power-cycle boundary. The arena is the worker's reusable simulation
// state (never nil); implementations should run through it so steady-state
// cells allocate nothing.
type Cell struct {
	// Key is the content-hash identity (see Key). Empty disables journal
	// and replay for this cell (it always runs).
	Key string
	// Label names the cell in journal entries and diagnostics (the app).
	Label string
	// Run executes the cell. A nil-Completed result feeds the sweep's
	// soft-fail (skipped app) path downstream.
	Run func(ctx context.Context, a *nvp.Arena) (nvp.Result, error)
	// RemoteReq, when non-empty, is the cell's declarative /v1/run body
	// (remote.EncodeCell): proof that a fleet server would reconstruct this
	// exact cell identity. Empty means the cell is not expressible remotely
	// and always runs locally, RemoteRunner or not.
	RemoteReq []byte
	// Observed marks a cell whose run feeds a per-run observer (an event
	// tracer, a per-cell trace file, a metrics registry). It always runs,
	// never answered by an earlier copy of its key, so observer output is
	// the same as in an unjournaled sweep.
	Observed bool
}

// Supervisor wraps every cell of a sweep in the crash-safety envelope:
// journal replay, bounded retries with deterministic exponential backoff,
// an optional wall-clock watchdog, and panic isolation. One Supervisor is
// shared by all of a sweep's experiment calls, so its StopAfter budget and
// counters span the whole command invocation. The zero value supervises
// with everything off (no journal, no retries, no backstop).
type Supervisor struct {
	// Journal receives one entry per finished cell; nil disables
	// journaling. A *Journal writes a durable file; a caller may wrap it to
	// observe each entry.
	//
	// A journaled supervisor runs each key once: a repeat of a key
	// waits for its first copy, skips RunRemote and local simulation, and
	// journals a copy of the first copy's entry, so the journal still holds
	// one identical line per cell. Only completed KindCell outcomes are
	// shared; keyless and Observed cells always run.
	Journal Sink
	// Replay holds journaled entries from a resumed run, keyed by cell
	// hash. Cells whose key maps to a KindCell entry return the journaled
	// result without simulating; KindFail entries re-run.
	Replay map[string]*Entry
	// MaxRetries bounds re-runs after a transient failure (wall-clock
	// timeout, paranoid-flagged run) or a truncated (Completed=false) run.
	// 0 disables retrying.
	MaxRetries int
	// BackoffBase scales the deterministic exponential backoff between
	// retries: attempt n sleeps BackoffBase << n (capped at 32×). The
	// delay depends only on the attempt number — no jitter — so retry
	// schedules are reproducible. 0 retries immediately.
	BackoffBase time.Duration
	// WallBackstop, when > 0, arms a wall-clock watchdog per cell run: the
	// cell's context is cancelled after this duration and the run reports
	// ErrCellTimeout (transient). Wall time never enters results — the
	// deterministic deadline is the cycle budget — so the backstop only
	// trades a hung harness for a retried cell.
	WallBackstop time.Duration
	// StopAfter, when > 0, interrupts the sweep after that many cells have
	// been admitted for execution — the same graceful-drain path a SIGINT
	// takes, but deterministic. It exists for the resume round-trip tests
	// and `make resume-smoke`.
	StopAfter uint64
	// Skip, when non-nil, short-circuits cells this process is not
	// responsible for: a cell whose key is empty or for which Skip reports
	// true returns a synthetic completed placeholder (see SkippedResult)
	// without simulating, journaling, or replaying, so a filtered sweep's
	// control flow still sees a result for every cell. It is also the
	// first hook RunCell consults, which makes it a cell-start probe for
	// callers whose filter never skips. The placeholder is deliberately
	// worthless: anything rendered from a filtered sweep must be
	// discarded.
	Skip func(key string) bool
	// Remote, when non-nil, is offered every journaled cell that carries a
	// RemoteReq before local execution. A handled cell is journaled from the
	// remote result; a declined one falls through to the local retry loop
	// unchanged (graceful degradation).
	Remote RemoteRunner
	// PropagatePanics returns an isolated cell panic to the caller as its
	// *PanicError instead of soft-failing the cell into a zero result. A
	// sweep wants the soft-fail (one poisoned cell costs one skipped app,
	// not the whole run); a server wants the error (a 500 response), since
	// a zero result must never be mistaken for — or cached as — a
	// simulation. The panic is still recovered, counted, and journaled
	// either way.
	PropagatePanics bool

	// Counters tracks supervision outcomes for telemetry.
	Counters Counters

	// Obs, when non-nil, records cell-lifecycle spans (attempt duration,
	// backoff, journal-append latency; the Pool adds queue wait) into the
	// metrics registry it was built over. Spans never touch the journal or
	// results — see NewObs.
	Obs *Obs

	admitted atomic.Uint64
	memo     memo
}

// admit consumes one slot of the StopAfter budget; it reports false once
// the budget is exhausted (the pool then drains as if cancelled).
func (s *Supervisor) admit() bool {
	if s == nil || s.StopAfter == 0 {
		return true
	}
	return s.admitted.Add(1) <= s.StopAfter
}

// Settled reports whether a non-observed cell with this key would be
// answered without running: by a replayable entry of a resumed journal, or
// by a finished memo entry of this journaled sweep. Such a cell never
// reaches RunRemote, so it needs no remote request. Nil-safe.
func (s *Supervisor) Settled(key string) bool {
	if s == nil || key == "" {
		return false
	}
	if e := s.Replay[key]; e != nil && e.Kind == KindCell && e.Result != nil {
		return true
	}
	return s.Journal != nil && s.memo.finished(key)
}

// prefetch offers a batch's remote-bound cells to a RemotePrefetcher and
// returns its release (nil when there is nothing to prefetch). It passes
// only the cells RunCell would really send remote — keyed, carrying a
// request, not observed, not Settled — each key once. It never calls Skip:
// RunCell consults Skip first, once per cell, as a cell-start probe.
func (s *Supervisor) prefetch(cells []Cell) func() {
	if s == nil {
		return nil
	}
	pf, ok := s.Remote.(RemotePrefetcher)
	if !ok {
		return nil
	}
	var batch []RemoteCell
	seen := make(map[string]bool)
	for _, c := range cells {
		if c.Key == "" || len(c.RemoteReq) == 0 || c.Observed || seen[c.Key] || s.Settled(c.Key) {
			continue
		}
		seen[c.Key] = true
		batch = append(batch, RemoteCell{Key: c.Key, Label: c.Label, Req: c.RemoteReq})
	}
	if len(batch) == 0 {
		return nil
	}
	return pf.PrefetchRemote(batch)
}

// replay looks up a journaled result for the cell.
func (s *Supervisor) replay(c Cell) (nvp.Result, bool) {
	if s == nil || c.Key == "" {
		return nvp.Result{}, false
	}
	e := s.Replay[c.Key]
	if e == nil || e.Kind != KindCell || e.Result == nil {
		return nvp.Result{}, false
	}
	s.Counters.Replayed.Add(1)
	return *e.Result, true
}

// RunCell executes one cell under the full supervision envelope and
// reports whether the result came from the journal instead of a
// simulation. The error is non-nil only for a non-recoverable failure the
// sweep should abort on; isolated panics return a zero, not-Completed
// result and a nil error so the sweep's existing skipped-app path absorbs
// them.
//
// The arena is handed to the cell body for state reuse; nil gets a private
// one. Reusing an arena across retries — and even across a recovered panic
// — is safe because every recycled component is reset from scratch at the
// next run's construction.
func (s *Supervisor) RunCell(c Cell, a *nvp.Arena) (nvp.Result, error, bool) {
	if s != nil && s.Skip != nil && (c.Key == "" || s.Skip(c.Key)) {
		s.Counters.Skipped.Add(1)
		return SkippedResult(c.Label), nil, false
	}
	if res, ok := s.replay(c); ok {
		return res, nil, true
	}
	if s == nil || s.Journal == nil || c.Key == "" || c.Observed {
		res, err, _ := s.execute(c, a)
		return res, err, false
	}
	for {
		call, leader := s.memo.join(c.Key)
		if leader {
			return s.lead(c, a, call)
		}
		<-call.done
		if e := call.entry; e != nil {
			s.Counters.Replayed.Add(1)
			s.journal(*e)
			return *e.Result, nil, true
		}
		// The leader's outcome was not shareable: run the key again.
	}
}

// lead runs a memoized key's first copy and publishes the entry it
// journaled to the copies waiting on call. The publication is deferred so
// that waiters are released even if the run panics out of RunCell.
func (s *Supervisor) lead(c Cell, a *nvp.Arena, call *memoCall) (res nvp.Result, err error, replayed bool) {
	var e *Entry
	defer func() { s.memo.finish(c.Key, call, e) }()
	res, err, e = s.execute(c, a)
	return res, err, false
}

// execute runs a cell remotely or locally under retries and panic
// isolation, journals the outcome, and returns the KindCell entry it
// journaled (nil for a failure).
func (s *Supervisor) execute(c Cell, a *nvp.Arena) (nvp.Result, error, *Entry) {
	if s != nil && s.Remote != nil && c.Key != "" && len(c.RemoteReq) > 0 {
		res, handled, err := s.Remote.RunRemote(c.Key, c.Label, c.RemoteReq)
		if handled {
			if err != nil {
				s.count(func(cs *Counters) { cs.Failures.Add(1) })
				s.journal(Entry{Kind: KindFail, Key: c.Key, App: c.Label,
					Attempts: 1, Error: err.Error()})
				return nvp.Result{App: c.Label}, err, nil
			}
			s.count(func(cs *Counters) { cs.Remote.Add(1) })
			e := &Entry{Kind: KindCell, Key: c.Key, App: c.Label, Attempts: 1, Result: &res}
			s.journal(*e)
			return res, nil, e
		}
		// Declined: degrade to local execution below.
	}
	if a == nil {
		a = nvp.NewArena()
	}
	var res nvp.Result
	var err error
	attempts := 0
	for {
		attempts++
		res, err = s.runOnce(c, a)
		var pe *PanicError
		if errors.As(err, &pe) {
			s.count(func(cs *Counters) { cs.Panics.Add(1); cs.Failures.Add(1) })
			s.journal(Entry{Kind: KindFail, Key: c.Key, App: c.Label,
				Attempts: attempts, Error: pe.Error(), Stack: pe.Stack})
			if s != nil && s.PropagatePanics {
				return nvp.Result{App: c.Label}, pe, nil
			}
			// Isolate: fail only this cell. A zero result with
			// Completed=false feeds the sweep's soft-fail path, so the
			// surviving cells still render (with a skipped note).
			return nvp.Result{App: c.Label}, nil, nil
		}
		retryable := (err != nil && IsTransient(err)) || (err == nil && !res.Completed)
		if retryable && attempts <= s.maxRetries() {
			s.count(func(cs *Counters) { cs.Retried.Add(1) })
			s.backoff(attempts)
			continue
		}
		break
	}
	s.count(func(cs *Counters) { cs.Executed.Add(1) })
	if err != nil {
		s.count(func(cs *Counters) { cs.Failures.Add(1) })
		s.journal(Entry{Kind: KindFail, Key: c.Key, App: c.Label,
			Attempts: attempts, Error: err.Error()})
		return res, err, nil
	}
	e := &Entry{Kind: KindCell, Key: c.Key, App: c.Label, Attempts: attempts, Result: &res}
	s.journal(*e)
	return res, nil, e
}

// BackoffDelay is the deterministic exponential delay before retry number
// `attempt` (1-based): base << (attempt-1), capped at 32× the base. No
// jitter: the schedule depends only on the attempt count, so retry
// behaviour is reproducible run to run. Exported because the remote
// client (internal/remote) spaces its fleet retries on the same curve,
// adding only its key-seeded jitter.
func BackoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 5 {
		shift = 5
	}
	return base << shift
}

// backoff sleeps the deterministic retry delay (see BackoffDelay). The
// sleep only spaces retries out; it is invisible in journals and output.
func (s *Supervisor) backoff(attempt int) {
	if s == nil || s.BackoffBase <= 0 {
		return
	}
	d := BackoffDelay(s.BackoffBase, attempt)
	// The span observes the deterministic delay itself (not a clock
	// measurement of the sleep): the schedule is exact by construction, and
	// recording the schedule keeps the backoff histogram reproducible.
	if o := s.Obs; o != nil {
		o.Backoff.ObserveDuration(d)
	}
	trace.Sleep(context.Background(), d)
}

// SkippedResult is the placeholder a Skip-filtered cell returns: marked
// Completed with unit cycle/instruction counts so downstream sweep
// arithmetic (speedup ratios, completeness filters) neither aborts the
// sweep nor divides by zero. It carries no simulation content whatsoever:
// output rendered from a filtered sweep is garbage by construction.
func SkippedResult(label string) nvp.Result {
	return nvp.Result{App: label, Completed: true, Cycles: 1, Insts: 1}
}

func (s *Supervisor) maxRetries() int {
	if s == nil {
		return 0
	}
	return s.MaxRetries
}

// obs returns the span recorder (nil when off or on a nil supervisor).
func (s *Supervisor) obs() *Obs {
	if s == nil {
		return nil
	}
	return s.Obs
}

func (s *Supervisor) count(f func(*Counters)) {
	if s != nil {
		f(&s.Counters)
	}
}

// journal appends an entry, best-effort: a journal write failure must not
// take down the sweep the journal exists to protect, so it is recorded on
// the entryless side (the cell result is still returned; resume will
// simply re-run it).
func (s *Supervisor) journal(e Entry) {
	if s == nil || s.Journal == nil || e.Key == "" {
		return
	}
	o := s.Obs
	var start time.Duration
	if o != nil {
		start = trace.Start(o.Clock)
	}
	// The append error is intentionally not fatal; see above.
	_ = s.Journal.Append(e)
	if o != nil {
		trace.Span(o.Clock, o.JournalAppend, start)
	}
}

// runOnce performs a single recover()-isolated attempt, arming the
// wall-clock watchdog when configured. The watchdog merely cancels a wedged
// cell, which then stops at a power-cycle boundary.
func (s *Supervisor) runOnce(c Cell, a *nvp.Arena) (res nvp.Result, err error) {
	var ctx context.Context
	cancel := func() {}
	if s != nil && s.WallBackstop > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), s.WallBackstop)
	}
	defer cancel()
	o := s.obs()
	var start time.Duration
	if o != nil {
		start = trace.Start(o.Clock)
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
		// Inside the recover defer so a panicking attempt is still timed.
		if o != nil {
			trace.Span(o.Clock, o.Attempt, start)
		}
	}()
	res, err = c.Run(ctx, a)
	if err == nil && ctx != nil && ctx.Err() != nil {
		// The watchdog fired and the run stopped at a power-cycle
		// boundary: classify as a transient timeout rather than a
		// truncated result.
		s.count(func(cs *Counters) { cs.Timeouts.Add(1) })
		err = Transient(fmt.Errorf("%s (%s): %w", c.Label, c.Key, ErrCellTimeout))
	}
	return res, err
}
