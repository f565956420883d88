package remote

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ipex/internal/experiments"
	"ipex/internal/fault"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/profile"
	"ipex/internal/workload"
)

// sameResult fails t unless a and b are equal, floats bit for bit:
// json.Marshal writes a float64 as the shortest text that round-trips it
// ("-0" for negative zero), so equal bytes mean equal bits.
func sameResult(t testing.TB, a, b nvp.Result) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !bytes.Equal(ja, jb) {
		t.Fatalf("decoded results differ:\n%s\n%s", ja, jb)
	}
}

// goldenResults reads every result of a golden file at the module root.
func goldenResults(t testing.TB, name string) []nvp.Result {
	t.Helper()
	data, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct{ Result nvp.Result }
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	res := make([]nvp.Result, len(entries))
	for i, e := range entries {
		res[i] = e.Result
	}
	return res
}

// capture is a journal sink that keeps every journaled result.
type capture struct {
	mu  sync.Mutex
	res []nvp.Result
}

func (c *capture) Append(e harness.Entry) error {
	if e.Result != nil {
		c.mu.Lock()
		c.res = append(c.res, *e.Result)
		c.mu.Unlock()
	}
	return nil
}

func runExp[R any](f func(experiments.Options) (R, error)) func(experiments.Options) error {
	return func(o experiments.Options) error {
		_, err := f(o)
		return err
	}
}

// registeredExperiments mirrors cmd/experiments' registry.
var registeredExperiments = map[string]func(experiments.Options) error{
	"fig01": runExp(experiments.Fig01), "fig02": runExp(experiments.Fig02),
	"fig04": runExp(experiments.Fig04), "fig10": runExp(experiments.Fig10),
	"fig11": runExp(experiments.Fig11), "fig12": runExp(experiments.Fig12),
	"fig13": runExp(experiments.Fig13), "fig14": runExp(experiments.Fig14),
	"fig15": runExp(experiments.Fig15), "table2": runExp(experiments.Table2),
	"table3": runExp(experiments.Table3), "table4": runExp(experiments.Table4),
	"fig16": runExp(experiments.Fig16), "fig17": runExp(experiments.Fig17),
	"fig18": runExp(experiments.Fig18), "fig19": runExp(experiments.Fig19),
	"fig20": runExp(experiments.Fig20), "fig21": runExp(experiments.Fig21),
	"fig22": runExp(experiments.Fig22), "fig23": runExp(experiments.Fig23),
	"fig24": runExp(experiments.Fig24), "fig25": runExp(experiments.Fig25),

	"robust-sensor": runExp(experiments.RobustSensor),
	"robust-ckpt":   runExp(experiments.RobustCkpt),

	"ablation-degree":   runExp(experiments.AblationDegreePolicy),
	"ablation-adaptive": runExp(experiments.AblationAdaptive),
	"ablation-dup":      runExp(experiments.AblationDupSuppress),
	"ablation-dest":     runExp(experiments.AblationPrefetchDest),
	"ext-reissue":       runExp(experiments.AblationReissue),
	"ext-addrgen":       runExp(experiments.AblationAddressGen),
}

// firstCells simulates the first keyed cell of every registered experiment
// (a Skip filter passes only that key) and returns their results.
func firstCells(t *testing.T) []nvp.Result {
	t.Helper()
	var all []nvp.Result
	for id, run := range registeredExperiments {
		var (
			mu    sync.Mutex
			first string
		)
		sink := &capture{}
		sup := &harness.Supervisor{Journal: sink, Skip: func(key string) bool {
			mu.Lock()
			defer mu.Unlock()
			if first == "" {
				first = key
			}
			return key != first
		}}
		o := experiments.Options{Scale: 0.01, Apps: []string{"fft"}, Parallelism: 1, Sup: sup}
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		all = append(all, sink.res...)
	}
	return all
}

// batteryCells simulates every configuration of the wire battery, cycle
// log included, at a small scale.
func batteryCells(t *testing.T) []nvp.Result {
	t.Helper()
	var all []nvp.Result
	for _, tc := range remotableBattery() {
		wl, err := workload.Shared().Get(tc.app, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nvp.Run(wl, tc.tr, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		all = append(all, res)
	}
	return all
}

// Every golden result, the first cell of every registered experiment and
// one cell of every wire configuration marshal to a body the one-pass
// decoder accepts, decode to the value decodeStrict gives, and re-marshal
// to the same bytes: the fallback does not carry the traffic.
func TestDecodeCanonicalRoundTrip(t *testing.T) {
	cases := map[string][]nvp.Result{
		"golden_rfhome": goldenResults(t, "golden_rfhome.json"),
		"golden_loops":  goldenResults(t, "golden_loops.json"),
		"experiments":   firstCells(t),
		"battery":       batteryCells(t),
	}
	var seen struct{ cycleLog, faults, invariants, profile bool }
	for name, results := range cases {
		if len(results) == 0 {
			t.Fatalf("%s: no result to decode", name)
		}
		for i, res := range results {
			body, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var fast nvp.Result
			if !decodeCanonical(resultPlan, body, &fast) {
				t.Fatalf("%s[%d]: the one-pass decoder refused a json.Marshal body:\n%s", name, i, body)
			}
			var strict nvp.Result
			if err := decodeStrict(body, &strict); err != nil {
				t.Fatalf("%s[%d]: %v", name, i, err)
			}
			sameResult(t, fast, strict)
			again, err := json.Marshal(fast)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, body) {
				t.Fatalf("%s[%d]: re-marshaled\n%s\nwant\n%s", name, i, again, body)
			}
			seen.cycleLog = seen.cycleLog || len(res.PowerCycleLog) > 0
			seen.faults = seen.faults || res.Faults != nil
			seen.invariants = seen.invariants || res.Invariants != nil
			seen.profile = seen.profile || res.Profile != nil
		}
		t.Logf("%s: %d result(s)", name, len(results))
	}
	if !seen.cycleLog || !seen.faults || !seen.invariants || !seen.profile {
		t.Fatalf("the corpus leaves an optional field undecoded: %+v", seen)
	}
}

// A frame header as WriteBatchFrame writes it decodes in one pass, with
// and without its omitempty field.
func TestDecodeCanonicalFrame(t *testing.T) {
	for _, cache := range []string{"hit", ""} {
		var b bytes.Buffer
		if err := WriteBatchFrame(&b, testKey, 200, cache, []byte(testBody)); err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(b.Bytes(), []byte{'\n'})
		var fast BatchFrame
		if !decodeCanonical(framePlan, line, &fast) {
			t.Fatalf("the one-pass decoder refused header %s", line)
		}
		var strict BatchFrame
		if err := decodeStrict(line, &strict); err != nil {
			t.Fatal(err)
		}
		if fast != strict {
			t.Fatalf("header %s: one pass %+v, decodeStrict %+v", line, fast, strict)
		}
	}
}

// The plan refuses every type it cannot read as encoding/json does, so a
// future field of such a type fails here (the package's own plans are
// built at init) instead of sending every body to the fallback. Fields
// with no JSON are left out.
func TestPlanRefusesWhatItCannotRead(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[nvp.Result](), reflect.TypeFor[BatchFrame]()} {
		if _, err := newPlan(typ); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
	}
	refused := map[string]reflect.Type{
		"map":         reflect.TypeFor[struct{ M map[string]uint64 }](),
		"interface":   reflect.TypeFor[struct{ I any }](),
		"embedded":    reflect.TypeFor[struct{ nvp.SideStats }](),
		"narrow int":  reflect.TypeFor[struct{ N int32 }](),
		"bytes":       reflect.TypeFor[struct{ B []byte }](),
		"unmarshaler": reflect.TypeFor[struct{ T time.Time }](),
		"nested map":  reflect.TypeFor[struct{ P *struct{ M []map[string]int } }](),
		"string option": reflect.TypeFor[struct {
			N uint64 `json:",string"`
		}](),
		"escaped name": reflect.TypeFor[struct {
			N uint64 `json:"a<b"`
		}](),
		"name twice": reflect.TypeFor[struct {
			X uint64
			Y uint64 `json:"X"`
		}](),
	}
	for name, typ := range refused {
		if _, err := newPlan(typ); err == nil {
			t.Errorf("%s: newPlan(%s) built a plan", name, typ)
		}
	}
	type hidden struct {
		A uint64
		B uint64 `json:"-"`
		c uint64
		D uint64 `json:"d,omitempty"`
	}
	p, err := newPlan(reflect.TypeFor[hidden]())
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, f := range p.fields {
		keys = append(keys, f.key)
	}
	if got := strings.Join(keys, " "); got != `"A": "d":` {
		t.Fatalf("plan keys %s, want \"A\": \"d\":", got)
	}
}

// benchBody is a fleet-warm-sized result body: a golden result without a
// cycle log.
func benchBody(t testing.TB) []byte {
	t.Helper()
	body, err := json.Marshal(goldenResults(t, "golden_rfhome.json")[0])
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// decodeResult allocates the result, its App and its Trace, and nothing
// else.
func TestDecodeResultAllocations(t *testing.T) {
	body := benchBody(t)
	if _, err := decodeResult(body); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = decodeResult(body) }); n > 3 {
		t.Fatalf("decodeResult made %v allocations, want at most 3", n)
	}
}

var benchResult nvp.Result

func BenchmarkDecodeResult(b *testing.B) {
	body := benchBody(b)
	b.Run("decodeResult", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			benchResult, _ = decodeResult(body)
		}
	})
	b.Run("decodeStrict", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			benchResult = nvp.Result{}
			_ = decodeStrict(body, &benchResult)
		}
	})
}

// FuzzDecodeResult holds decodeResult to decodeStrict: a body the one-pass
// decoder accepts, decodeStrict accepts with an equal value (floats bit for
// bit), and decodeResult refuses exactly what decodeStrict refuses.
func FuzzDecodeResult(f *testing.F) {
	full := goldenResults(f, "golden_rfhome.json")[0]
	full.PowerCycleLog = []nvp.PowerCycleStats{{StartCycle: 0, OnCycles: 7, Insts: 3, DirtyAtBackup: 2}, {StartCycle: 90}}
	full.Faults = &fault.Stats{SensorSamples: 12, RetryNJ: 0.125}
	full.Invariants = &fault.Report{Checks: 40, Violations: []fault.Violation{
		{Check: "energy_balance", Cycle: 9, PowerCycle: 1, Detail: "drain 3 > budget 2 & <cap>"}},
		Truncated: true, LedgerNJ: 1e-9}
	full.Profile = &profile.Report{Insts: 3, TotalCycles: 7, LedgerNJ: 2.5,
		PowerCycles: []profile.CycleRecord{{Index: 0, Insts: 3}}}
	for _, res := range []nvp.Result{full, goldenResults(f, "golden_loops.json")[0], {}} {
		body, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		testBody,                         // out of order
		`{"App":"fft","Trace":"RFHome"}`, // canonical
		`{"Trace":"RFHome","App":"fft"}`, // out of order
		`{"App":"fft","App":"gsme"}`,     // duplicate key
		`{"Insts":null,"Completed":null,"App":null,"Energy":null}`,
		`{"Insts":01}`,
		`{"Insts":-0}`,
		`{"Insts":1e2}`,
		`{"Insts":18446744073709551616}`,
		`{"Energy":{"Cache":1e999}}`,
		`{"Energy":{"Cache":-0}}`,
		`{"Energy":{"Cache":-0.0e-0}}`,
		`{"app":"fft"}`,
		`{"App":"fft"}`,
		`{"PowerCycleLog":[],"Faults":{}}`,
		`{"Profile":{"Cycles":[1,2]}}`,
		`{"Bogus":1}`,
		`{} ` + "\n",
		`{}x`,
		` {}`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want nvp.Result
		wantErr := decodeStrict(body, &want)
		var fast nvp.Result
		if decodeCanonical(resultPlan, body, &fast) {
			if wantErr != nil {
				t.Fatalf("one pass accepted %q; decodeStrict refuses it: %v", body, wantErr)
			}
			sameResult(t, fast, want)
		}
		got, err := decodeResult(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeResult(%q) error %v; decodeStrict error %v", body, err, wantErr)
		}
		if err == nil {
			sameResult(t, got, want)
		}
	})
}
