package harness

import (
	"encoding/json"
	"testing"

	"ipex/internal/nvp"
)

// FuzzJournalLine hardens the single journal line parser behind -resume:
// arbitrary bytes must either decode to a structurally complete entry or
// an error — never a panic, and never a half-valid entry (a cell without a
// key or result) that replay could mistake for a simulation.
func FuzzJournalLine(f *testing.F) {
	hdr, _ := json.Marshal(Entry{Kind: KindHeader, Schema: Schema, Sweep: Key("sweep")})
	cell, _ := json.Marshal(Entry{Kind: KindCell, Key: Key("cell"), App: "fft",
		Result: &nvp.Result{App: "fft", Completed: true, Insts: 10, Cycles: 20}})
	fail, _ := json.Marshal(Entry{Kind: KindFail, Key: Key("cell"), App: "fft", Error: "boom", Attempts: 2})
	for _, seed := range [][]byte{
		hdr, cell, fail,
		[]byte(`{"kind":"cell","key":"beef"}`), // cell without result
		[]byte(`{"kind":"header"}`),            // header without schema
		[]byte(`{"kind":"fail"}`),              // fail without key
		[]byte(`{"kind":"cell","key":"be`),     // torn tail
		[]byte(`{"kind":"wat","key":"beef"}`),  // unknown kind
		[]byte(`null`), []byte(``), []byte(`[]`), []byte(`"x"`),
		[]byte("{\"kind\":\"cell\",\"key\":\"\xff\xfe\"}"), // invalid UTF-8
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := ParseLine(raw)
		if err != nil {
			return
		}
		switch e.Kind {
		case KindHeader:
			if e.Schema == "" {
				t.Fatalf("accepted header without schema: %q", raw)
			}
		case KindCell:
			if e.Key == "" || e.Result == nil {
				t.Fatalf("accepted incomplete cell entry: %q", raw)
			}
		case KindFail:
			if e.Key == "" {
				t.Fatalf("accepted fail entry without key: %q", raw)
			}
		default:
			t.Fatalf("accepted unknown kind %q: %q", e.Kind, raw)
		}
		// A valid entry must survive a marshal/parse round trip unchanged in
		// the fields replay depends on.
		re, _ := json.Marshal(e)
		e2, err := ParseLine(re)
		if err != nil {
			t.Fatalf("re-encoded entry failed to parse: %v (from %q)", err, raw)
		}
		if e2.Kind != e.Kind || e2.Key != e.Key || e2.Schema != e.Schema || e2.Sweep != e.Sweep {
			t.Fatalf("round trip changed entry identity: %+v vs %+v", e, e2)
		}
	})
}
