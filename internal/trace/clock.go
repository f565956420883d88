package trace

import (
	"context"
	"sync/atomic"
	"time"
)

// This file is the only place in internal/ that reads the wall clock,
// sleeps or arms a timer, and the determinism lint (make lint) pins it that
// way. Every latency measurement flows through an injected Clock, so tests
// substitute a FakeClock to make span values exact; every real wait
// (retry backoff, hedge and stall timers, chaos-proxy holds) goes through
// the functions below. Nothing read or waited here may ever feed a
// simulated result: latencies live in metrics and trace streams only, and
// waits only space work out.

// Clock is a monotonic time source: Now returns the elapsed duration since
// an arbitrary fixed epoch (process start for the wall implementation). Two
// reads subtract to a span length; absolute values are meaningless across
// processes.
type Clock interface {
	Now() time.Duration
}

// wallClock reads the process monotonic clock. time.Since carries Go's
// monotonic reading, so spans are immune to wall-clock steps (NTP, DST).
type wallClock struct{ base time.Time }

// NewWallClock returns the real monotonic clock, epoch'd at construction.
func NewWallClock() Clock { return &wallClock{base: time.Now()} }

func (c *wallClock) Now() time.Duration { return time.Since(c.base) }

// FakeClock is the test implementation: a manually advanced monotonic
// clock, safe for concurrent use. The zero value starts at 0.
type FakeClock struct{ ns atomic.Int64 }

// Now returns the fake clock's current reading.
func (f *FakeClock) Now() time.Duration { return time.Duration(f.ns.Load()) }

// Advance moves the clock forward by d (negative d moves it back; tests
// only).
func (f *FakeClock) Advance(d time.Duration) { f.ns.Add(int64(d)) }

// Start opens a span: c's reading, or 0 when c is nil (spans off). Off
// costs one nil compare and no clock read.
func Start(c Clock) time.Duration {
	if c == nil {
		return 0
	}
	return c.Now()
}

// Span closes a span opened by Start, recording its length into h; a
// no-op when c is nil.
func Span(c Clock, h *Histogram, start time.Duration) {
	if c == nil {
		return
	}
	h.ObserveDuration(c.Now() - start)
}

// Sleep waits d of real time, or until ctx is done. The context cuts a
// retry backoff short on shutdown: a fleet of dead servers must not hold a
// pool worker in sleeps after the user asked to stop.
func Sleep(ctx context.Context, d time.Duration) {
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

// NewTimer arms a timer that fires once after d of real time (a hedge
// deadline). Callers must Stop it.
func NewTimer(d time.Duration) *time.Timer { return time.NewTimer(d) }

// StoppedTimer returns a stopped timer that calls f once d of real time
// has passed after its next Reset (a stream's stall watchdog).
func StoppedTimer(d time.Duration, f func()) *time.Timer {
	t := time.AfterFunc(d, f)
	t.Stop()
	return t
}

// Deadline is the real time d from now, for net.Conn deadlines.
func Deadline(d time.Duration) time.Time { return time.Now().Add(d) }
