// Package benchio defines the BENCH_hotloop.json schema shared by the
// benchmark suite (bench_test.go) and cmd/experiments' -benchjson flag: a
// small machine-readable record of simulator hot-loop throughput and
// experiment wall-clock, committed alongside the code so performance
// regressions show up in review like test regressions do.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Schema identifies the record layout; bump on incompatible change.
// v2 added Hotloop.FastPaths: per-configuration throughput and allocation
// figures for the simulator loop.
const Schema = "ipex-bench-hotloop/v2"

// FastPath is the measurement of the simulator loop under one
// configuration, run through a warmed arena so the figures isolate the
// loop itself. The JSON key keeps its schema-v2 name, fast_paths, from
// when each configuration class had its own specialized loop.
type FastPath struct {
	// Name is the configuration: "default", "ipex-both", "no-prefetch" or
	// "paranoid" (records written before the loops were merged carry the
	// loop variants "generic", "fast" and "fast-nopf" instead).
	Name string `json:"name"`
	// InstsPerSec is simulated instructions per wall second.
	InstsPerSec float64 `json:"insts_per_sec"`
	// NsPerInst is wall nanoseconds per simulated instruction.
	NsPerInst float64 `json:"ns_per_inst"`
	// AllocsPerRun is heap allocations per steady-state arena run.
	AllocsPerRun int64 `json:"allocs_per_run"`
}

// Hotloop measures the simulator core: one full nvp.Run of a memoized
// workload, normalized per simulated instruction.
type Hotloop struct {
	// App and Scale identify the probed workload.
	App   string  `json:"app"`
	Scale float64 `json:"scale"`
	// Insts is the simulated instruction count of one run.
	Insts uint64 `json:"insts"`
	// NsPerInst is wall nanoseconds per simulated instruction.
	NsPerInst float64 `json:"ns_per_inst"`
	// InstsPerSec is the reciprocal throughput (simulated insts / wall s).
	InstsPerSec float64 `json:"insts_per_sec"`
	// AllocsPerRun and BytesPerRun are heap allocations per nvp.Run.
	AllocsPerRun int64 `json:"allocs_per_run"`
	BytesPerRun  int64 `json:"bytes_per_run"`
	// FastPaths breaks throughput down per configuration (schema v2).
	FastPaths []FastPath `json:"fast_paths,omitempty"`
}

// Experiment is the wall-clock of one cmd/experiments entry.
type Experiment struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Record is the full BENCH_hotloop.json document.
type Record struct {
	Schema        string       `json:"schema"`
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	Scale         float64      `json:"scale,omitempty"`
	Hotloop       *Hotloop     `json:"hotloop,omitempty"`
	Experiments   []Experiment `json:"experiments,omitempty"`
	// Notes carries free-form context (e.g. the pre-optimization baseline
	// numbers the current figures should be compared against).
	Notes []string `json:"notes,omitempty"`
}

// NewRecord returns a Record stamped with the current time and toolchain.
func NewRecord() Record {
	return Record{
		Schema:        Schema,
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
	}
}

// Write marshals the record (indented, trailing newline) to path, via the
// temp-then-rename discipline so an interrupt never leaves a torn record.
func Write(path string, r Record) error {
	if r.Schema == "" {
		r.Schema = Schema
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchio: %w", err)
	}
	return WriteFileAtomic(path, append(b, '\n'), 0o644)
}

// Read loads a record written by Write.
func Read(path string) (Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return Record{}, fmt.Errorf("benchio: %s: %w", path, err)
	}
	return r, nil
}
