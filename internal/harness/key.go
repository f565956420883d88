// Package harness is the crash-safe execution layer under the experiment
// sweeps: it journals every completed sweep cell to disk so an interrupted
// run can resume without re-simulating, supervises each cell with bounded
// retries, a deterministic cycle-budget deadline (plus an optional
// wall-clock backstop), and recover()-based panic isolation, and drains a
// worker pool gracefully on cancellation. The simulator itself survives
// power failure by checkpointing and replaying idempotent work; this
// package applies the same discipline one level up, to the harness that
// sweeps it.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Key derives the content-hash identity of a value: the canonical JSON of v
// hashed with SHA-256, truncated to 32 hex digits. Sweep cells are keyed by
// the hash of everything that determines their result (app, configuration,
// trace seed, scale), so a journal written for one experiment definition
// can never be replayed into a changed one — a stale entry's key simply no
// longer matches, and a stale sweep header is rejected outright.
//
// v must marshal deterministically: structs of scalars, slices, and nested
// structs (Go's encoding/json emits struct fields in declaration order and
// floats in their shortest round-trip form). Maps would iterate in random
// order and must not appear in key material. A value that fails to marshal
// panics: keys are built from code-defined identity structs, so a failure
// is a programming error, not an input error.
func Key(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("harness: unhashable key material: %v", err))
	}
	return KeyJSON(b)
}

// KeyJSON is Key for key material that is already marshaled: b must be the
// JSON Key would marshal.
func KeyJSON(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
