package remote

import (
	"context"
	"time"
)

// This file is the package's only wall-clock touchpoint: remote execution
// needs real time for backoff sleeps and hedge timers, but nothing that
// feeds a simulated result may ever observe it. The determinism lint pins
// wall-clock use in internal/ to exactly the registered clock corners.

// realSleep is the default Client sleep; tests substitute a recorder so
// the deterministic backoff schedule is asserted, not waited out. The
// context cuts a backoff short on sweep shutdown — a fleet of dead
// servers must not hold a pool worker in sleeps after the user asked to
// stop.
func realSleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// hedgeTimer arms the straggler-detection timer that triggers a hedged
// request. Callers must Stop it.
func hedgeTimer(d time.Duration) *time.Timer {
	return time.NewTimer(d)
}

// stallTimer returns a stopped timer that calls f once d has passed after
// its next Reset. A batch stream resets it while it is owed frames and
// stops it while it is not (see batchStream).
func stallTimer(d time.Duration, f func()) *time.Timer {
	t := time.AfterFunc(d, f)
	t.Stop()
	return t
}
