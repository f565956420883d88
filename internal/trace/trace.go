// Package trace is the simulator's observability layer: a per-power-cycle
// event tracer and a named-counter metrics registry.
//
// The paper's entire analysis (Figs. 8–15) is built from per-power-cycle
// evidence — wiped-before-use prefetches, throttling rates, checkpoint
// energy — but a Result only carries end-of-run aggregates. The tracer
// streams the underlying events (power-cycle start/end, outage checkpoints,
// prefetch issue/throttle/wipe/first-use, IPEX threshold crossings and
// degree changes) as JSON Lines, so every aggregate number is decomposable
// into the event history that produced it.
//
// Both facilities are strictly opt-in and zero-overhead when disabled: the
// simulator holds nil pointers and every emission site is guarded by a
// single nil compare, so the hot loop's golden byte-identical behaviour and
// throughput are untouched when tracing is off.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind names an event type. The values are stable strings (they appear in
// JSONL output and downstream tooling greps for them).
type Kind string

// The event vocabulary. One simulated run emits exactly one KindRunStart /
// KindRunEnd pair bracketing its power cycles.
const (
	// KindRunStart opens a run; Run carries the workload name.
	KindRunStart Kind = "run_start"
	// KindRunEnd closes a run; N is the committed instruction count and
	// Detail is "completed" or "budget" (MaxCycles hit).
	KindRunEnd Kind = "run_end"
	// KindCycleStart marks a reboot (or initial boot); PowerCycle is the
	// 0-based index of the cycle that begins here.
	KindCycleStart Kind = "cycle_start"
	// KindCycleEnd marks a power failure terminating PowerCycle; N is the
	// number of instructions the cycle committed.
	KindCycleEnd Kind = "cycle_end"
	// KindCheckpoint is the JIT checkpoint at an outage: N dirty DCache
	// blocks persisted, Value the backup energy in nJ (0 in ideal mode).
	KindCheckpoint Kind = "checkpoint"
	// KindPrefetchIssue is one prefetch read put on the NVM bus; Detail is
	// "reissue" when the ReissueOnExit extension replayed it.
	KindPrefetchIssue Kind = "pf_issue"
	// KindPrefetchThrottle is one candidate IPEX suppressed below the
	// conventional degree.
	KindPrefetchThrottle Kind = "pf_throttle"
	// KindPrefetchWipe is one prefetched-but-unused block destroyed by the
	// power failure; Detail names where it died: "cache" (resident line),
	// "buffer" (prefetch-buffer entry), or "inflight" (read still on the
	// bus).
	KindPrefetchWipe Kind = "pf_wipe"
	// KindPrefetchFirstUse is a prefetched block serving its first demand
	// access — the moment it becomes "useful" in the paper's accounting.
	// Detail is "cache" or "buffer".
	KindPrefetchFirstUse Kind = "pf_first_use"
	// KindThresholdCross is an IPEX voltage-threshold crossing; Value is
	// the threshold (volts), N is +1 (upward) or -1 (downward).
	KindThresholdCross Kind = "threshold_cross"
	// KindThresholdAdapt is the reboot-time adaptive threshold move; N is
	// +1 (up, more saving) or -1 (down, more prefetching).
	KindThresholdAdapt Kind = "threshold_adapt"
	// KindDegreeChange reports R_cpd after a change; N is the new degree
	// and Detail is "halve", "double", or "reboot_reset".
	KindDegreeChange Kind = "degree_change"
	// KindCycleStats carries one cache side's demand-stream deltas for the
	// power cycle ending here (Side, Accesses, Misses). Emitted once per
	// side right before KindCycleEnd, and again before KindRunEnd for the
	// final partial cycle, so the offline analyzer can reconstruct
	// per-cycle miss rates and prefetch coverage from the trace alone.
	KindCycleStats Kind = "cycle_stats"
	// KindMark is a free-form stream marker (cmd/experiments separates
	// experiments with it); Detail carries the label.
	KindMark Kind = "mark"
	// KindFaultSensor is an injected voltage-monitor sample failure; Detail
	// is "dropout" (conversion lost, previous reading repeated) or "stuck"
	// (output register frozen; N is the window length in samples), Value the
	// reading reported in its place.
	KindFaultSensor Kind = "fault_sensor"
	// KindFaultCkpt is an injected checkpoint-write fault; Detail is "retry"
	// (one re-issued block write, Value its energy in nJ) or "rollback"
	// (full dirty-set re-walk, N the block writes discarded).
	KindFaultCkpt Kind = "fault_ckpt"
	// KindFaultHarvest is an injected power-trace anomaly; Detail is
	// "dropout", "spike" (Value the boosted power in watts), or "storm";
	// Block carries the absolute 10 µs sample index.
	KindFaultHarvest Kind = "fault_harvest"
)

// Event is one JSONL record. Cycle and PowerCycle are stamped by the
// tracer's clock at emission; emitters fill the rest.
type Event struct {
	Kind       Kind   `json:"ev"`
	Cycle      uint64 `json:"cycle"`
	PowerCycle uint64 `json:"pcycle"`
	// Run labels KindRunStart events with the workload name.
	Run string `json:"run,omitempty"`
	// Side is "icache" or "dcache" for per-cache-side events.
	Side string `json:"side,omitempty"`
	// Block is the block address for prefetch events.
	Block uint64 `json:"block,omitempty"`
	// N is a small integer payload (count, degree, crossing direction).
	N int64 `json:"n,omitempty"`
	// Value is a float payload (volts or nanojoules).
	Value float64 `json:"value,omitempty"`
	// Detail disambiguates within a kind (see the Kind constants).
	Detail string `json:"detail,omitempty"`
	// Accesses / Misses are the per-side demand-stream deltas carried by
	// KindCycleStats events; zero (and omitted) on every other kind.
	Accesses uint64 `json:"accesses,omitempty"`
	Misses   uint64 `json:"misses,omitempty"`
}

// Tracer streams events as JSON Lines. The zero value is not usable; build
// with NewJSONL. All methods are nil-receiver safe, so components hold a
// possibly-nil *Tracer and emission costs one pointer compare when tracing
// is off.
//
// A Tracer is safe for use by one run at a time: the simulator installs its
// clock with Begin and emits from a single goroutine. Sharing one Tracer
// across concurrent runs would interleave clocks; the experiment harness
// therefore serializes sweeps while tracing.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	clock  func() (cycle, powerCycle uint64)
	events uint64
	err    error
}

// NewJSONL returns a tracer writing one JSON object per line to w.
func NewJSONL(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriterSize(w, 64<<10)}
}

// Begin binds the tracer to a new run: the clock supplies (cycle,
// power-cycle) stamps for every subsequent event, and a KindRunStart event
// labelled with name is emitted. Call once per simulated run.
func (t *Tracer) Begin(name string, clock func() (cycle, powerCycle uint64)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
	t.Emit(Event{Kind: KindRunStart, Run: name})
}

// Emit stamps e with the current clock and writes it. Errors are sticky:
// the first write failure is retained (see Err) and later emissions are
// dropped.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if t.clock != nil {
		e.Cycle, e.PowerCycle = t.clock()
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.err = fmt.Errorf("trace: encoding event: %w", err)
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = fmt.Errorf("trace: writing event: %w", err)
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = fmt.Errorf("trace: writing event: %w", err)
		return
	}
	t.events++
}

// Events returns how many events have been written.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Flush drains the buffered writer and returns the first error the tracer
// has seen (write failures are sticky).
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if err := t.w.Flush(); err != nil {
		t.err = fmt.Errorf("trace: flushing: %w", err)
	}
	return t.err
}

// Err returns the sticky error, if any, without flushing.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
