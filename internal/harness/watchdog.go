package harness

// This file is the harness's only wall-clock corner, and the determinism
// lint (make lint) pins it that way: time.Now/time.After/time.Sleep in
// internal/ are forbidden everywhere except internal/benchio and this
// file. Nothing here feeds a simulated result — the watchdog merely
// cancels a wedged cell (which then stops at a power-cycle boundary), and
// the backoff sleep only spaces retries out; both are invisible in
// journals and output.

import (
	"context"
	"time"
)

// backstopContext returns a context the wall-clock watchdog cancels after
// d.
func backstopContext(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
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

// backoff sleeps the deterministic retry delay (see BackoffDelay).
func (s *Supervisor) backoff(attempt int) {
	if s == nil || s.BackoffBase <= 0 {
		return
	}
	d := BackoffDelay(s.BackoffBase, attempt)
	// The span observes the deterministic delay itself (not a clock
	// measurement of the sleep): the schedule is exact by construction, and
	// recording the schedule keeps the backoff histogram reproducible.
	s.obs().observeBackoff(d)
	time.Sleep(d)
}
