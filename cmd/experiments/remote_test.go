package main

import (
	"sort"
	"sync"
	"testing"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/remote"
)

// TestEveryRegisteredCellIsRemotable runs every registered experiment at a
// tiny scale and requires remote.EncodeCell to put each keyed cell on the
// wire, so a -servers sweep leaves no cell simulating on the client.
func TestEveryRegisteredCellIsRemotable(t *testing.T) {
	// Cells are encoded only for a supervisor with a runner; this one
	// declines every cell, so each runs locally.
	sup := &harness.Supervisor{Remote: decliner{}}
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var (
		mu       sync.Mutex
		encoded  int
		declined = map[string]int{}
	)
	for _, id := range ids {
		o := experiments.Options{
			Scale: 0.01,
			Apps:  []string{"fft", "gsme"},
			Sup:   sup,
			RemoteEncode: func(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config, key string) []byte {
				body := remote.EncodeCell(app, scale, tr, seed, cfg, key)
				mu.Lock()
				defer mu.Unlock()
				if body == nil {
					declined[id]++
				} else {
					encoded++
				}
				return body
			},
		}
		if _, err := registry[id](o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if len(declined) > 0 {
		t.Fatalf("EncodeCell declined keyed cells (per experiment): %v", declined)
	}
	if encoded == 0 {
		t.Fatal("no cell reached the encoder; the test proved nothing")
	}
	t.Logf("%d keyed cells across %d experiments, all remotable", encoded, len(ids))
}

// TestEveryRegisteredCellKeyIsHarnessKey runs every registered experiment
// at a tiny scale and requires the key each keyed cell gets — spliced from
// its configuration's identity, marshaled once per point — to equal
// harness.Key of the cell's full identity.
func TestEveryRegisteredCellKeyIsHarnessKey(t *testing.T) {
	sup := &harness.Supervisor{Remote: decliner{}}
	var (
		mu      sync.Mutex
		checked int
	)
	for id, run := range registry {
		o := experiments.Options{
			Scale: 0.01,
			Apps:  []string{"fft"},
			Sup:   sup,
			RemoteEncode: func(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config, key string) []byte {
				ci, err := experiments.NewConfigIdentity(cfg)
				if err != nil {
					t.Errorf("%s: keyed cell without a config identity: %v", id, err)
					return nil
				}
				want := harness.Key(experiments.CellIdentity{App: app, Scale: scale, TraceSeed: seed,
					TraceName: tr.Name, TraceLen: len(tr.Samples), Config: ci})
				if key != want {
					t.Errorf("%s: %s cell keyed %s, harness.Key of its identity is %s", id, app, key, want)
				}
				mu.Lock()
				checked++
				mu.Unlock()
				return nil
			},
		}
		if _, err := run(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if checked == 0 {
		t.Fatal("no cell reached the encoder; the test proved nothing")
	}
	t.Logf("%d keyed cells across %d experiments", checked, len(registry))
}

// decliner is a RemoteRunner that declines every cell.
type decliner struct{}

func (decliner) RunRemote(string, string, []byte) (nvp.Result, bool, error) {
	return nvp.Result{}, false, nil
}

// TestNoBatchRepeatsAKey scans the -all sweep without simulating: a Skip
// supervisor records every keyed cell, and no experiment (one pool batch)
// may repeat a key. Every repeat is then a key an earlier, finished batch
// ran, so which copy the memo runs — and so which per-cell trace files a
// sweep writes — does not depend on scheduling.
func TestNoBatchRepeatsAKey(t *testing.T) {
	var (
		mu   sync.Mutex
		keys []string
	)
	sup := &harness.Supervisor{Skip: func(key string) bool {
		mu.Lock()
		keys = append(keys, key)
		mu.Unlock()
		return true
	}}
	if len(order) != len(registry) {
		t.Fatalf("-all runs %d experiments, the registry holds %d", len(order), len(registry))
	}
	seen := make(map[string]bool)
	cells := 0
	for _, id := range order {
		keys = nil
		if _, err := registry[id](experiments.Options{Scale: 0.01, Sup: sup}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		batch := make(map[string]bool, len(keys))
		for _, k := range keys {
			if batch[k] {
				t.Errorf("%s: key %s repeats inside the batch", id, k)
			}
			batch[k] = true
			seen[k] = true
		}
		cells += len(keys)
	}
	if len(seen) == 0 || len(seen) == cells {
		t.Fatalf("%d keyed cells, %d distinct: the sweep has no repeats to test", cells, len(seen))
	}
	t.Logf("%d keyed cells, %d distinct keys", cells, len(seen))
}
