package prefetch

import (
	"testing"
	"testing/quick"
)

func TestNewAllKinds(t *testing.T) {
	for _, kind := range append(append([]Kind{}, InstructionKinds...), DataKinds...) {
		pf, err := New(kind)
		if err != nil {
			t.Errorf("New(%q): %v", kind, err)
			continue
		}
		if pf == nil {
			t.Errorf("New(%q) returned nil prefetcher", kind)
			continue
		}
		if Kind(pf.Name()) != kind {
			t.Errorf("New(%q).Name() = %q", kind, pf.Name())
		}
	}
}

func TestNewNone(t *testing.T) {
	pf, err := New(KindNone)
	if err != nil || pf != nil {
		t.Errorf("New(none) = %v, %v", pf, err)
	}
	pf, err = New("")
	if err != nil || pf != nil {
		t.Errorf("New(\"\") = %v, %v", pf, err)
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("warpdrive"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindLists(t *testing.T) {
	if InstructionKinds[0] != KindSequential {
		t.Error("Table 3 default must be sequential")
	}
	if DataKinds[0] != KindStride {
		t.Error("Table 4 default must be stride")
	}
	if len(InstructionKinds) != 3 || len(DataKinds) != 3 {
		t.Error("the paper evaluates 3 instruction and 3 data prefetchers")
	}
}

// Property: no prefetcher ever proposes the block it was triggered on as a
// candidate when fed a random miss stream, and candidates never exceed a
// sane count per event.
func TestPrefetchersWellBehavedOnRandomStreams(t *testing.T) {
	kinds := append(append([]Kind{}, InstructionKinds...), DataKinds...)
	f := func(raw []uint32, pcRaw []uint8) bool {
		for _, kind := range kinds {
			pf, err := New(kind)
			if err != nil {
				return false
			}
			var dst []uint64
			for i, r := range raw {
				addr := uint64(r % (1 << 21))
				pc := uint64(0x100)
				if len(pcRaw) > 0 {
					pc += uint64(pcRaw[i%len(pcRaw)]) * 4
				}
				dst = pf.OnAccess(dst[:0], Event{
					PC: pc, Addr: addr, Block: addr &^ 15,
					Miss: r%3 != 0, BufHit: r%7 == 0, BlockSize: 16,
				})
				if len(dst) > 2*MaxDegree {
					return false
				}
			}
			pf.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: prefetchers are deterministic — the same event stream yields
// the same candidate stream.
func TestPrefetchersDeterministic(t *testing.T) {
	kinds := append(append([]Kind{}, InstructionKinds...), DataKinds...)
	stream := make([]Event, 500)
	for i := range stream {
		a := uint64((i * 7919) % (1 << 18))
		stream[i] = Event{PC: uint64(0x100 + (i%37)*4), Addr: a, Block: a &^ 15, Miss: i%2 == 0, BlockSize: 16}
	}
	for _, kind := range kinds {
		a, _ := New(kind)
		b, _ := New(kind)
		for i, ev := range stream {
			ca := a.OnAccess(nil, ev)
			cb := b.OnAccess(nil, ev)
			if len(ca) != len(cb) {
				t.Fatalf("%s: diverged at event %d", kind, i)
			}
			for j := range ca {
				if ca[j] != cb[j] {
					t.Fatalf("%s: candidate %d differs at event %d", kind, j, i)
				}
			}
		}
	}
}

func TestCheckMatchesNewWithoutAllocating(t *testing.T) {
	for _, kind := range []Kind{KindNone, "", KindSequential, KindStride, KindMarkov, KindTIFS, KindGHB, KindBO, KindAMPM, "warpdrive"} {
		_, newErr := New(kind)
		if err := Check(kind); (err == nil) != (newErr == nil) {
			t.Errorf("Check(%q) = %v, New's error = %v", kind, err, newErr)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Check(KindTIFS) }); n != 0 {
		t.Errorf("Check of a known kind made %v allocations, want 0", n)
	}
}
