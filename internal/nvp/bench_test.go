package nvp

import (
	"testing"

	"ipex/internal/power"
	"ipex/internal/workload"
)

// benchStream returns the shared gsme trace arena at full scale, generated
// once per process so no benchmark iteration pays generation cost.
func benchStream(b *testing.B, scale float64) *workload.Stream {
	b.Helper()
	st, err := workload.Shared().Stream("gsme", scale)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkLoops measures the simulator loop through a warmed arena, one
// case per configuration the repository benchmark's sweeps run: the default
// system, IPEX on both caches, no prefetching, and the paranoid invariant
// checker (the sweep-checked cells).
func BenchmarkLoops(b *testing.B) {
	tr := power.Generate(power.RFHome, 200000, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"default", nil},
		{"ipex-both", func(c *Config) { *c = c.WithIPEX() }},
		{"no-prefetch", func(c *Config) { *c = c.WithoutPrefetch() }},
		{"paranoid", func(c *Config) { c.Paranoid = true }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			st := benchStream(b, 1.0)
			a := NewArena()
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := a.RunStream(st, tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				insts = r.Insts
			}
			b.StopTimer()
			if insts > 0 {
				b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
			}
		})
	}
}
