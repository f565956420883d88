package experiments

import (
	"errors"
	"reflect"
	"testing"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/prefetch"
)

// nonIdentityConfigFields lists every nvp.Config field that is deliberately
// OUTSIDE the content identity, with the reason. Everything else must map
// into ConfigIdentity — TestConfigIdentityExhaustive enforces it, so a new
// Config field cannot silently drop out of the cell key (which would let
// stale journal and cache entries match fresh requests).
var nonIdentityConfigFields = map[string]string{
	"Tracer":  "observer: a traced re-run replays the same result",
	"Metrics": "observer: counters never alter simulated behaviour",
}

// identityFieldAliases maps Config field names to the ConfigIdentity field
// that carries them when the names differ. The factory funcs themselves
// are unhashable; their declared IDs are the identity.
var identityFieldAliases = map[string]string{
	"IPrefetcherFactory": "IFactory",
	"IPrefetcherID":      "IFactory",
	"DPrefetcherFactory": "DFactory",
	"DPrefetcherID":      "DFactory",
}

// TestConfigIdentityExhaustive pins the identity schema against the config
// schema from both directions: every nvp.Config field is either carried by
// ConfigIdentity or explicitly excluded above, and every ConfigIdentity
// field corresponds to a live Config field (no dead key material).
func TestConfigIdentityExhaustive(t *testing.T) {
	cfgT := reflect.TypeOf(nvp.Config{})
	idT := reflect.TypeOf(ConfigIdentity{})

	idFields := make(map[string]bool, idT.NumField())
	for i := 0; i < idT.NumField(); i++ {
		idFields[idT.Field(i).Name] = true
	}

	covered := make(map[string]bool, idT.NumField())
	for i := 0; i < cfgT.NumField(); i++ {
		name := cfgT.Field(i).Name
		target := name
		if alias, ok := identityFieldAliases[name]; ok {
			target = alias
		}
		if idFields[target] {
			if nonIdentityConfigFields[name] != "" {
				t.Errorf("nvp.Config.%s is both in ConfigIdentity (as %s) and in the exclusion list; pick one", name, target)
			}
			covered[target] = true
			continue
		}
		if nonIdentityConfigFields[name] == "" {
			t.Errorf("nvp.Config.%s is neither carried by ConfigIdentity nor excluded with a reason: a result-affecting field outside the key lets stale cache/journal entries match fresh requests", name)
		}
	}
	for name := range idFields {
		if !covered[name] {
			t.Errorf("ConfigIdentity.%s matches no nvp.Config field: dead key material (renamed or removed Config field?)", name)
		}
	}
}

// TestConfigIdentitySameTypes verifies identity fields carry the exact
// type of the config field they mirror, so no narrowing conversion can
// alias two distinct configurations onto one key.
func TestConfigIdentitySameTypes(t *testing.T) {
	cfgT := reflect.TypeOf(nvp.Config{})
	idT := reflect.TypeOf(ConfigIdentity{})
	for i := 0; i < idT.NumField(); i++ {
		f := idT.Field(i)
		if f.Name == "IFactory" || f.Name == "DFactory" {
			continue // string IDs standing in for funcs, by design
		}
		cf, ok := cfgT.FieldByName(f.Name)
		if !ok {
			continue // reported by TestConfigIdentityExhaustive
		}
		if cf.Type != f.Type {
			t.Errorf("ConfigIdentity.%s has type %v, nvp.Config.%s has %v", f.Name, f.Type, cf.Name, cf.Type)
		}
	}
}

// TestFactoryIdentityInKey pins the bugfix: factory-built prefetchers hash
// by their declared ID, not by mere presence, so two different custom
// prefetchers can no longer collide onto one cell key.
func TestFactoryIdentityInKey(t *testing.T) {
	factoryA := func() prefetch.Prefetcher { return prefetch.NewSequential() }
	factoryB := func() prefetch.Prefetcher { return prefetch.NewStride(16) }

	cfgA := nvp.DefaultConfig()
	cfgA.DPrefetcherFactory = factoryA
	cfgA.DPrefetcherID = "custom-a/v1"
	cfgB := nvp.DefaultConfig()
	cfgB.DPrefetcherFactory = factoryB
	cfgB.DPrefetcherID = "custom-b/v1"

	idA, err := NewConfigIdentity(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := NewConfigIdentity(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if harness.Key(idA) == harness.Key(idB) {
		t.Fatal("two different factory IDs produced the same config identity")
	}

	// Same ID, either factory instance: identical identity (the ID is the
	// contract; the caller versions it with behaviour).
	cfgB2 := cfgB
	cfgB2.DPrefetcherID = "custom-a/v1"
	idB2, err := NewConfigIdentity(cfgB2)
	if err != nil {
		t.Fatal(err)
	}
	if harness.Key(idA) != harness.Key(idB2) {
		t.Fatal("equal factory IDs produced different identities")
	}

	// A factory-built config must also differ from the same config without
	// a factory.
	plain, err := NewConfigIdentity(nvp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if harness.Key(plain) == harness.Key(idA) {
		t.Fatal("factory-built config hashed identically to the factory-free default")
	}
}

// TestUnnamedFactoryRefused pins the refusal path: a factory without an ID
// has no stable identity, so NewConfigIdentity rejects it and the sweep's
// cellKey returns the empty key — which the harness treats as unkeyable
// (never journaled, never replayed, always simulated).
func TestUnnamedFactoryRefused(t *testing.T) {
	cfg := nvp.DefaultConfig()
	cfg.IPrefetcherFactory = func() prefetch.Prefetcher { return prefetch.NewSequential() }

	if _, err := NewConfigIdentity(cfg); !errors.Is(err, ErrUnnamedFactory) {
		t.Fatalf("unnamed instruction factory: got %v, want ErrUnnamedFactory", err)
	}
	cfgD := nvp.DefaultConfig()
	cfgD.DPrefetcherFactory = func() prefetch.Prefetcher { return prefetch.NewStride(16) }
	if _, err := NewConfigIdentity(cfgD); !errors.Is(err, ErrUnnamedFactory) {
		t.Fatalf("unnamed data factory: got %v, want ErrUnnamedFactory", err)
	}

	o := Options{Scale: 0.02, TraceSeed: 1}.norm()
	tr := o.trace(0)
	if k := cellKey(o, job{app: "fft", tr: tr, ident: identityJSON(o.effective(cfg))}); k != "" {
		t.Fatalf("unnamed-factory cell got key %q, want \"\" (unkeyable)", k)
	}

	// Naming the factory restores a stable key.
	cfg.IPrefetcherID = "custom/v1"
	if k := cellKey(o, job{app: "fft", tr: tr, ident: identityJSON(o.effective(cfg))}); k == "" {
		t.Fatal("named-factory cell still unkeyable")
	}
}

// TestUnnamedFactoryValidates pins nvp.Config.Validate's guard: an ID
// without its factory is a configuration error (it would fork the key
// space for behaviourally identical configs).
func TestUnnamedFactoryValidates(t *testing.T) {
	cfg := nvp.DefaultConfig()
	cfg.IPrefetcherID = "ghost/v1"
	if err := cfg.Validate(); err == nil {
		t.Fatal("IPrefetcherID without a factory validated")
	}
	cfg = nvp.DefaultConfig()
	cfg.DPrefetcherID = "ghost/v1"
	if err := cfg.Validate(); err == nil {
		t.Fatal("DPrefetcherID without a factory validated")
	}
}
