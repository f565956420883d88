package trace

import (
	"context"
	"testing"
	"time"
)

func TestSpan(t *testing.T) {
	r := NewRegistry()

	// Spans off: a nil clock opens at 0 and records nothing.
	off := r.Histogram("off", nil)
	start := Start(nil)
	if start != 0 {
		t.Fatalf("Start(nil) = %v, want 0", start)
	}
	Span(nil, off, start)
	if off.Count() != 0 {
		t.Fatalf("nil clock recorded %d span(s), want none", off.Count())
	}

	// A FakeClock makes span values exact.
	var c FakeClock
	c.Advance(3 * time.Second)
	on := r.Histogram("on", nil)
	start = Start(&c)
	if start != 3*time.Second {
		t.Fatalf("Start = %v, want the clock's reading 3s", start)
	}
	c.Advance(1500 * time.Millisecond)
	Span(&c, on, start)
	c.Advance(250 * time.Millisecond)
	Span(&c, on, start)
	s := on.Snapshot()
	if s.N != 2 || s.MinV != 1.5 || s.MaxV != 1.75 || s.Sum != 3.25 {
		t.Fatalf("spans = n %d min %v max %v sum %v, want 2 spans of 1.5s and 1.75s", s.N, s.MinV, s.MaxV, s.Sum)
	}
}

func TestSleepInterruptible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Sleep(ctx, time.Hour)
	if time.Since(start) > 5*time.Second {
		t.Fatal("Sleep ignored context cancellation")
	}
}

func TestStoppedTimerWaitsForReset(t *testing.T) {
	fired := make(chan struct{}, 2)
	tm := StoppedTimer(time.Millisecond, func() { fired <- struct{}{} })
	time.Sleep(20 * time.Millisecond)
	select {
	case <-fired:
		t.Fatal("stopped timer fired before Reset")
	default:
	}
	tm.Reset(time.Millisecond)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire after Reset")
	}
}
