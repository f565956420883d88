package remote

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/prefetch"
	"ipex/internal/workload"
)

// resetEncodeMemo empties EncodeCell's Build memo, so the next call of each
// configuration takes the cold path.
func resetEncodeMemo() {
	encodeMemo.mu.Lock()
	clear(encodeMemo.m)
	encodeMemo.mu.Unlock()
}

// The spliced key every layer derives equals harness.Key of the full cell
// identity for the remotable battery, through CellIdentity.Key, IdentityKey
// and the server's Spec.Key.
func TestSplicedKeyIsHarnessKey(t *testing.T) {
	for _, tc := range remotableBattery() {
		ci, err := experiments.NewConfigIdentity(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		id := experiments.CellIdentity{App: tc.app, Scale: tc.scale, TraceSeed: tc.seed,
			TraceName: tc.tr.Name, TraceLen: len(tc.tr.Samples), Config: ci}
		want := harness.Key(id)
		if got := id.Key(); got != want {
			t.Errorf("%s: CellIdentity.Key = %s, harness.Key = %s", tc.name, got, want)
		}
		if got := experiments.IdentityKey(id.App, id.Scale, id.TraceSeed, id.TraceName, id.TraceLen, experiments.MarshalIdentity(ci)); got != want {
			t.Errorf("%s: IdentityKey = %s, harness.Key = %s", tc.name, got, want)
		}
		rq, err := DecodeRunRequest(EncodeCell(tc.app, tc.scale, tc.tr, tc.seed, tc.cfg, want))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sp, err := rq.Build(Limits{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sp.Key(tc.tr.Name, len(tc.tr.Samples)); got != want {
			t.Errorf("%s: Spec.Key = %s, harness.Key = %s", tc.name, got, want)
		}
	}
}

// A memo hit returns the bytes of the cold path for every battery
// configuration under every app, and one Build serves all 20 apps of a
// configuration.
func TestEncodeCellMemoHitsMatchColdPath(t *testing.T) {
	t.Cleanup(resetEncodeMemo)
	apps := workload.Names()
	for _, tc := range remotableBattery() {
		cold := make(map[string][]byte, len(apps))
		for _, app := range apps {
			resetEncodeMemo()
			key := keyFor(t, app, tc.scale, tc.tr, tc.seed, tc.cfg)
			if cold[app] = EncodeCell(app, tc.scale, tc.tr, tc.seed, tc.cfg, key); cold[app] == nil {
				t.Fatalf("%s/%s: cold path declined a remotable cell", tc.name, app)
			}
		}
		resetEncodeMemo()
		for pass := 0; pass < 2; pass++ {
			for _, app := range apps {
				key := keyFor(t, app, tc.scale, tc.tr, tc.seed, tc.cfg)
				if got := EncodeCell(app, tc.scale, tc.tr, tc.seed, tc.cfg, key); !bytes.Equal(got, cold[app]) {
					t.Fatalf("%s/%s pass %d: memo path encoded\n%s\ncold path\n%s", tc.name, app, pass, got, cold[app])
				}
			}
		}
		if n := encodeMemo.Len(); n != 1 {
			t.Fatalf("%s: %d memo entries for one configuration under %d apps, want 1", tc.name, n, len(apps))
		}
	}
}

// A memo hit declines everything the cold path declines: a wrong wantKey,
// an unknown app, a configuration Build refuses, and every inexpressible
// configuration whose request builds to another key.
func TestEncodeCellMemoHitsStillDecline(t *testing.T) {
	t.Cleanup(resetEncodeMemo)
	resetEncodeMemo()
	tr := defaultTrace()
	cfg := nvp.DefaultConfig()
	key := keyFor(t, "fft", 0.1, tr, 1, cfg)
	if EncodeCell("fft", 0.1, tr, 1, cfg, key) == nil {
		t.Fatal("EncodeCell declined the default cell")
	}
	if EncodeCell("fft", 0.1, tr, 1, cfg, "00000000000000000000000000000000") != nil {
		t.Fatal("a memo hit accepted a wrong wantKey")
	}
	if EncodeCell("qsort", 0.1, tr, 1, cfg, key) != nil {
		t.Fatal("a memo hit accepted another app's key")
	}
	if EncodeCell("doom", 0.1, tr, 1, cfg, key) != nil {
		t.Fatal("a memo hit accepted an unknown app")
	}

	unbuildable := nvp.DefaultConfig()
	unbuildable.DPrefetcher = prefetch.Kind("psychic")
	withFactory := nvp.DefaultConfig()
	withFactory.IPrefetcherFactory = func() prefetch.Prefetcher { return prefetch.NewSequential() }
	withFactory.IPrefetcherID = "custom-seq"
	ipexInstOnly := nvp.DefaultConfig().WithIPEX()
	ipexInstOnly.IPEXData = false
	tunedCap := nvp.DefaultConfig()
	tunedCap.Capacitor.Vbackup += 0.05
	for name, cfg := range map[string]nvp.Config{
		"unbuildable":             unbuildable,
		"prefetcher-factory":      withFactory,
		"ipex-inst-only":          ipexInstOnly,
		"tuned-capacitor-vbackup": tunedCap,
	} {
		for _, app := range []string{"fft", "gsme", "fft"} {
			key := keyFor(t, app, 0.1, tr, 1, cfg)
			if body := EncodeCell(app, 0.1, tr, 1, cfg, key); body != nil {
				t.Fatalf("%s/%s: encoded an inexpressible cell: %s", name, app, body)
			}
		}
	}
}

// Concurrent EncodeCell calls, over more configurations than the memo
// holds, each return the bytes of a serial call, and the memo stays within
// its bound.
func TestEncodeCellMemoConcurrent(t *testing.T) {
	t.Cleanup(resetEncodeMemo)
	tr := defaultTrace()
	type cell struct {
		app, key string
		scale    float64
		cfg      nvp.Config
		want     []byte
	}
	var cells []cell
	for i := 0; i < encodeMemoEntries+40; i++ {
		cfg := nvp.DefaultConfig()
		if i%2 == 1 {
			cfg = cfg.WithIPEX()
		}
		scale := 0.1 + float64(i/2)*0.001
		for _, app := range []string{"fft", "gsme"} {
			key := keyFor(t, app, scale, tr, 1, cfg)
			resetEncodeMemo()
			want := EncodeCell(app, scale, tr, 1, cfg, key)
			if want == nil {
				t.Fatalf("cell %d/%s declined", i, app)
			}
			cells = append(cells, cell{app, key, scale, cfg, want})
		}
	}
	resetEncodeMemo()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cells {
				c := cells[(i*7+w*31)%len(cells)]
				if got := EncodeCell(c.app, c.scale, tr, 1, c.cfg, c.key); !bytes.Equal(got, c.want) {
					errs <- fmt.Errorf("worker %d: %s at scale %g encoded %s, want %s", w, c.app, c.scale, got, c.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := encodeMemo.Len(); n > encodeMemoEntries {
		t.Fatalf("memo holds %d entries, bound %d", n, encodeMemoEntries)
	}
}
