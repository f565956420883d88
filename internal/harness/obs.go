package harness

import "ipex/internal/trace"

// Obs records cell-lifecycle spans — where a cell's wall time goes between
// entering the pool and landing in the journal. Spans live only in the
// metrics registry (and whatever scrapes it); they never enter the journal
// or a result, which must stay byte-deterministic. The Supervisor and Pool
// treat a nil *Obs as "off": the instrumented paths pay one nil compare
// plus, when enabled, two Clock reads per span (trace.Start, trace.Span).
//
// The four spans:
//
//	harness.queue_wait_seconds     dispatch→pickup wait in the Pool
//	harness.attempt_seconds        one supervised run attempt (per attempt,
//	                               not per cell — retries observe again)
//	harness.backoff_seconds        the deterministic retry delay slept
//	harness.journal_append_seconds one journal Append (write + covering fsync)
type Obs struct {
	Clock trace.Clock

	QueueWait     *trace.Histogram
	Attempt       *trace.Histogram
	Backoff       *trace.Histogram
	JournalAppend *trace.Histogram
}

// NewObs builds the span recorder over an injected clock, registering the
// lifecycle histograms in reg. A nil clock or registry returns nil (spans
// off), so call sites can pass through whatever they were configured with.
func NewObs(clock trace.Clock, reg *trace.Registry) *Obs {
	if clock == nil || reg == nil {
		return nil
	}
	return &Obs{
		Clock:         clock,
		QueueWait:     reg.Histogram("harness.queue_wait_seconds", nil),
		Attempt:       reg.Histogram("harness.attempt_seconds", nil),
		Backoff:       reg.Histogram("harness.backoff_seconds", nil),
		JournalAppend: reg.Histogram("harness.journal_append_seconds", nil),
	}
}
