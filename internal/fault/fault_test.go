package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestConfigActive(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Active() {
		t.Error("nil config reports active")
	}
	if (&Config{}).Active() {
		t.Error("zero config reports active")
	}
	if (&Config{Seed: 42}).Active() {
		t.Error("seed alone must not activate injection")
	}
	cases := []Config{
		{Sensor: SensorConfig{ADCBits: 8}},
		{Sensor: SensorConfig{NoiseV: 0.005}},
		{Sensor: SensorConfig{DropoutProb: 0.01}},
		{Sensor: SensorConfig{StuckProb: 0.01}},
		{Checkpoint: CheckpointConfig{WriteFailProb: 0.1}},
		{Harvest: HarvestConfig{DropoutProb: 0.1}},
		{Harvest: HarvestConfig{SpikeProb: 0.1}},
		{Harvest: HarvestConfig{StormProb: 0.1}},
	}
	for i, c := range cases {
		if !c.Active() {
			t.Errorf("case %d: config should be active: %+v", i, c)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"zero", Config{}, ""},
		{"full valid", Config{
			Seed:       7,
			Sensor:     SensorConfig{ADCBits: 8, VRef: 3.3, NoiseV: 0.01, DropoutProb: 0.02, StuckProb: 0.001, StuckLen: 4},
			Checkpoint: CheckpointConfig{WriteFailProb: 0.5, MaxRetries: 2, MaxRollbacks: 4},
			Harvest:    HarvestConfig{DropoutProb: 0.1, SpikeProb: 0.1, SpikeScale: 2, StormProb: 0.01, StormLen: 16},
		}, ""},
		{"adc bits high", Config{Sensor: SensorConfig{ADCBits: 25}}, "ADC bits"},
		{"adc bits negative", Config{Sensor: SensorConfig{ADCBits: -1}}, "ADC bits"},
		{"vref nan", Config{Sensor: SensorConfig{VRef: nan}}, "VRef"},
		{"vref inf", Config{Sensor: SensorConfig{VRef: math.Inf(1)}}, "VRef"},
		{"noise negative", Config{Sensor: SensorConfig{NoiseV: -0.1}}, "noise"},
		{"noise nan", Config{Sensor: SensorConfig{NoiseV: nan}}, "noise"},
		{"sensor dropout > 1", Config{Sensor: SensorConfig{DropoutProb: 1.5}}, "dropout"},
		{"sensor stuck nan", Config{Sensor: SensorConfig{StuckProb: nan}}, "stuck"},
		{"stuck len negative", Config{Sensor: SensorConfig{StuckLen: -1}}, "stuck length"},
		{"ckpt prob negative", Config{Checkpoint: CheckpointConfig{WriteFailProb: -0.1}}, "write-failure"},
		{"ckpt retries negative", Config{Checkpoint: CheckpointConfig{MaxRetries: -1}}, "retries"},
		{"ckpt rollbacks negative", Config{Checkpoint: CheckpointConfig{MaxRollbacks: -2}}, "rollbacks"},
		{"ckpt retries past cap", Config{Checkpoint: CheckpointConfig{MaxRetries: RetriesCap + 1}}, "retries"},
		{"ckpt rollbacks past cap", Config{Checkpoint: CheckpointConfig{MaxRollbacks: RollbacksCap + 1}}, "rollbacks"},
		{"harvest dropout nan", Config{Harvest: HarvestConfig{DropoutProb: nan}}, "dropout"},
		{"harvest spike > 1", Config{Harvest: HarvestConfig{SpikeProb: 2}}, "spike"},
		{"spike scale negative", Config{Harvest: HarvestConfig{SpikeScale: -1}}, "spike scale"},
		{"spike scale inf", Config{Harvest: HarvestConfig{SpikeScale: math.Inf(1)}}, "spike scale"},
		{"storm prob > 1", Config{Harvest: HarvestConfig{StormProb: 1.01}}, "storm"},
		{"storm len too long", Config{Harvest: HarvestConfig{StormLen: MaxStormLen + 1}}, "storm length"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error containing %q, got nil", tc.name, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config must validate: %v", err)
	}
}

// An ideal sensor (zero config) must pass voltages through unchanged.
func TestSensorIdealIsIdentity(t *testing.T) {
	var st Stats
	s := NewSensor(SensorConfig{}, 1, 3.0, nil, &st)
	for _, v := range []float64{0, 0.5, 1.234567, 2.999} {
		if got := s.Read(v); got != v {
			t.Errorf("ideal sensor altered %g -> %g", v, got)
		}
	}
	if st.SensorSamples != 4 || st.SensorDropouts != 0 || st.SensorStuck != 0 {
		t.Errorf("ideal sensor stats wrong: %+v", st)
	}
}

// Quantization must floor to exact LSB multiples over [0, VRef].
func TestSensorQuantization(t *testing.T) {
	var st Stats
	s := NewSensor(SensorConfig{ADCBits: 3, VRef: 8.0}, 1, 0, nil, &st)
	// LSB = 8 / 2^3 = 1.0 volts.
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.99, 0}, {1.0, 1.0}, {2.5, 2.0}, {7.999, 7.0},
		{8.0, 8.0}, {9.5, 8.0}, {-0.5, 0},
	}
	for _, tc := range cases {
		if got := s.Read(tc.in); got != tc.want {
			t.Errorf("quantize(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// A dropout repeats the previous reading; stuck-at freezes it for the
// configured window.
func TestSensorDropoutAndStuck(t *testing.T) {
	var st Stats
	s := NewSensor(SensorConfig{DropoutProb: 1}, 1, 3.0, nil, &st)
	if got := s.Read(2.5); got != 0 {
		t.Errorf("first dropout should repeat initial 0, got %g", got)
	}
	if st.SensorDropouts != 1 {
		t.Errorf("dropout not counted: %+v", st)
	}

	st = Stats{}
	s = NewSensor(SensorConfig{StuckProb: 1, StuckLen: 3}, 1, 3.0, nil, &st)
	s.last = 1.5 // pretend a prior good conversion
	for i := 0; i < 5; i++ {
		if got := s.Read(2.5); got != 1.5 {
			t.Errorf("sample %d: stuck sensor reported %g, want frozen 1.5", i, got)
		}
	}
	if st.SensorStuck != 5 {
		t.Errorf("stuck samples = %d, want 5", st.SensorStuck)
	}
}

// The same (seed, config) must reproduce the identical reading sequence.
func TestSensorDeterminism(t *testing.T) {
	cfg := SensorConfig{ADCBits: 8, NoiseV: 0.02, DropoutProb: 0.05, StuckProb: 0.01}
	run := func() []float64 {
		var st Stats
		s := NewSensor(cfg, 99, 3.0, nil, &st)
		out := make([]float64, 0, 500)
		v := 2.8
		for i := 0; i < 500; i++ {
			out = append(out, s.Read(v))
			v -= 0.004
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("sensor readings differ across identically-seeded runs")
	}
}

// Harvest perturbation must be a pure function of the sample index: any
// query order, including repeats, yields the same power.
func TestHarvestPurity(t *testing.T) {
	cfg := HarvestConfig{DropoutProb: 0.2, SpikeProb: 0.1, SpikeScale: 3, StormProb: 0.02, StormLen: 8}
	fresh := func() *Harvester {
		var st Stats
		return NewHarvester(cfg, 7, nil, &st)
	}
	const n = 400
	forward := make([]float64, n)
	h := fresh()
	for i := uint64(0); i < n; i++ {
		forward[i] = h.Power(i, 1.0)
	}
	// Reverse order on a fresh instance.
	h2 := fresh()
	for i := n; i > 0; i-- {
		idx := uint64(i - 1)
		if got := h2.Power(idx, 1.0); got != forward[idx] {
			t.Fatalf("idx %d: reverse-order power %g != forward %g", idx, got, forward[idx])
		}
	}
	// Immediate re-query (the simulator's outage-recharge pattern).
	h3 := fresh()
	for i := uint64(0); i < n; i++ {
		a := h3.Power(i, 1.0)
		b := h3.Power(i, 1.0)
		if a != b {
			t.Fatalf("idx %d: re-query changed power %g -> %g", i, a, b)
		}
		if a != forward[i] {
			t.Fatalf("idx %d: re-query run diverged", i)
		}
	}
}

// A storm must zero a consecutive run of samples.
func TestHarvestStormContiguity(t *testing.T) {
	var st Stats
	h := NewHarvester(HarvestConfig{StormProb: 0.01, StormLen: 16}, 3, nil, &st)
	const n = 20000
	zeroRuns := 0
	run := 0
	for i := uint64(0); i < n; i++ {
		if h.Power(i, 1.0) == 0 {
			run++
		} else if run > 0 {
			zeroRuns++
			if run > 2*16 { // overlapping storms can chain, but sanity-bound it
				t.Fatalf("storm run of %d samples exceeds plausible chain", run)
			}
			run = 0
		}
	}
	if zeroRuns == 0 || st.HarvestStorms == 0 {
		t.Fatalf("no storms observed in %d samples (runs=%d stats=%+v)", n, zeroRuns, st)
	}
}

// Disabled anomalies must never alter power.
func TestHarvestDisabledIsIdentity(t *testing.T) {
	var st Stats
	h := NewHarvester(HarvestConfig{}, 7, nil, &st)
	for i := uint64(0); i < 100; i++ {
		if got := h.Power(i, 0.123); got != 0.123 {
			t.Fatalf("idx %d: disabled harvester altered power to %g", i, got)
		}
	}
	if st.HarvestDropouts+st.HarvestSpikes+st.HarvestStorms != 0 {
		t.Fatalf("disabled harvester counted faults: %+v", st)
	}
}

// WriteFailProb=1 must fail every unforced attempt and force past the bound.
func TestCheckpointerBounds(t *testing.T) {
	var st Stats
	c := NewCheckpointer(CheckpointConfig{WriteFailProb: 1}, 1, nil, &st)
	if c.MaxRollbacks() != DefaultMaxRollbacks {
		t.Errorf("default rollback bound = %d, want %d", c.MaxRollbacks(), DefaultMaxRollbacks)
	}
	for i := 0; i < 10; i++ {
		if !c.WriteFails(false) {
			t.Fatal("WriteFailProb=1 produced a success")
		}
	}
	if c.WriteFails(true) {
		t.Fatal("forced attempt failed")
	}
	if st.CheckpointWriteFailures != 10 || st.CheckpointForced != 1 {
		t.Errorf("stats wrong: %+v", st)
	}

	var st0 Stats
	c0 := NewCheckpointer(CheckpointConfig{WriteFailProb: 0}, 1, nil, &st0)
	for i := 0; i < 10; i++ {
		if c0.WriteFails(false) {
			t.Fatal("WriteFailProb=0 produced a failure")
		}
	}
}

func TestReport(t *testing.T) {
	var nilRep *Report
	if !nilRep.Clean() {
		t.Error("nil report must be clean")
	}
	if got := nilRep.Summary(); !strings.Contains(got, "not checked") {
		t.Errorf("nil summary = %q", got)
	}
	r := &Report{Checks: 5}
	if !r.Clean() {
		t.Error("empty report must be clean")
	}
	r.Add("energy_balance", 100, 2, "leak of %g nJ", 3.5)
	if r.Clean() {
		t.Error("report with violation reports clean")
	}
	if got := r.Summary(); !strings.Contains(got, "energy_balance") || !strings.Contains(got, "3.5") {
		t.Errorf("summary = %q", got)
	}
	for i := 0; i < MaxViolations+10; i++ {
		r.Add("x", 0, 0, "v%d", i)
	}
	if len(r.Violations) != MaxViolations || !r.Truncated {
		t.Errorf("cap not enforced: len=%d truncated=%v", len(r.Violations), r.Truncated)
	}
}
