package remote

// FuzzRunRequest fuzzes the /v1/run decode→build path — the exact bytes an
// ipexd accepts from the network. The invariants are the endpoint's safety
// contract: the decoder never panics, never accepts more than
// MaxRequestBody or anything but whitespace after the request, and
// anything Build accepts holds at most core.MaxThresholds thresholds and
// checkpoint retry/rollback bounds within fault.RetriesCap/RollbacksCap,
// and has a well-formed, stable content identity (the cell key the result
// cache files it under).

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ipex/internal/core"
	"ipex/internal/fault"
)

func FuzzRunRequest(f *testing.F) {
	// A remotable cell's own encoding is the most interesting seed shape.
	f.Add([]byte(`{"app":"fft","scale":0.1,"trace_seed":1}`))
	f.Add([]byte(`{"app":"gsme","scale":0.5,"source":"solar","trace_seed":9,"config":{"ipex":"both","degree":4}}`))
	f.Add([]byte(`{"app":"qsort","config":{"iprefetch":"markov","dprefetch":"ghb","nvm":"STTRAM","nvm_bytes":33554432}}`))
	f.Add([]byte(`{"app":"fft","config":{"prefetch_to_cache":false,"dup_suppress":false,"max_cycles":5000000}}`))
	// Hostile shapes: unknown fields, wrong types, extremes, junk.
	f.Add([]byte(`{"app":"fft","bogus":1}`))
	f.Add([]byte(`{"app":"fft","scale":1e309}`))
	f.Add([]byte(`{"app":"fft","scale":-1}`))
	f.Add([]byte(`{"app":"fft","config":{"ipex":"sideways"}}`))
	f.Add([]byte(`{"app":"fft","config":{"capacitance_farads":-4.7e-7}}`))
	f.Add([]byte(`{"app":` + strings.Repeat("[", 64) + `}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(``))
	f.Add(bytes.Repeat([]byte(`{"app":"fft"}`), 100_000)) // > MaxRequestBody
	// The sensitivity, ablation and robustness spellings: IPEX tunables and
	// fault schedules, plus a threshold list past core.MaxThresholds and
	// checkpoint bounds past the fault caps.
	f.Add([]byte(`{"app":"fft","config":{"thresholds":[3.3],"step_v":0.1,"throttle_rate_trigger":0,"adaptive":false,"linear_adjust":true}}`))
	f.Add([]byte(`{"app":"gsme","config":{"ipex":"both","paranoid":true,"faults":{"seed":1,"checkpoint":{"write_fail_prob":0.05}}}}`))
	f.Add([]byte(`{"app":"fft","config":{"faults":{"sensor":{"adc_bits":10,"noise_v":0.02,"dropout_prob":0.1},"harvest":{"storm_prob":0.01,"storm_len":64}}}}`))
	f.Add([]byte(`{"app":"fft","config":{"thresholds":[3.3,3.4],"faults":{"sensor":{"stuck_prob":2}}}}`))
	f.Add([]byte(`{"app":"fft","config":{"thresholds":[3.39,3.38,3.37,3.36,3.35,3.34,3.33,3.32,3.31]}}`))
	f.Add([]byte(`{"app":"fft","config":{"faults":{"checkpoint":{"write_fail_prob":1,"max_retries":2147483647,"max_rollbacks":2147483647}}}}`))

	f.Add([]byte(`{"app":"fft"}{"app":"qsort"}`))
	f.Add([]byte(`{"app":"fft"} x`))
	f.Add([]byte("{\"app\":\"fft\"} \t\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := DecodeRunRequest(data)
		if err != nil {
			return // rejected bytes are the decoder doing its job
		}
		// Accepted bytes are at most MaxRequestBody and one JSON value with
		// nothing but whitespace after it.
		if len(data) > MaxRequestBody {
			t.Fatalf("decoder accepted a %d-byte body (cap %d)", len(data), MaxRequestBody)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("decoder accepted %q, which is not JSON: %v", data, err)
		}
		if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("decoder accepted %q with trailing data %q", data, rest)
		}
		sp, err := rq.Build(Limits{MaxScale: 10, CellBudget: 1 << 20})
		if err != nil {
			return
		}
		// Accepted requests must have a sane, finite scale...
		if !(sp.Scale > 0) || math.IsInf(sp.Scale, 0) || math.IsNaN(sp.Scale) {
			t.Fatalf("Build accepted a degenerate scale %v from %q", sp.Scale, data)
		}
		// ...a respected cycle budget...
		if sp.Config.MaxCycles == 0 || sp.Config.MaxCycles > 1<<20 {
			t.Fatalf("Build ignored the CellBudget clamp: MaxCycles=%d from %q", sp.Config.MaxCycles, data)
		}
		// ...and a deterministic identity: building the same decoded request
		// twice yields the same cell key.
		sp2, err := rq.Build(Limits{MaxScale: 10, CellBudget: 1 << 20})
		if err != nil {
			t.Fatalf("Build succeeded then failed on identical input: %v", err)
		}
		if n := len(sp.Config.IPEX.Thresholds); n > core.MaxThresholds {
			t.Fatalf("Build accepted %d thresholds from %q (cap %d)", n, data, core.MaxThresholds)
		}
		if f := sp.Config.Faults; f != nil && (f.Checkpoint.MaxRetries > fault.RetriesCap || f.Checkpoint.MaxRollbacks > fault.RollbacksCap) {
			t.Fatalf("Build accepted checkpoint bounds %d/%d from %q (caps %d/%d)",
				f.Checkpoint.MaxRetries, f.Checkpoint.MaxRollbacks, data, fault.RetriesCap, fault.RollbacksCap)
		}
		if k1, k2 := sp.Key("rf_home", 4096), sp2.Key("rf_home", 4096); k1 != k2 || k1 == "" {
			t.Fatalf("cell key unstable across rebuilds: %q vs %q", k1, k2)
		}
	})
}
