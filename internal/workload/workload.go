// Package workload provides deterministic synthetic access-stream
// generators standing in for the 20 MediaBench/MiBench applications the
// paper evaluates (§6).
//
// The real benchmarks cannot be compiled and traced here (they need an ARM
// v7-M cross toolchain and the gem5 trace flow), but IPEX and the NVP
// simulator only observe each program's *address stream*: the instruction
// fetch sequence and the data reference sequence, with their locality,
// stride structure, and footprint. Each generator reproduces exactly those
// properties for its app, parameterised to match the published texture of
// the paper's figures:
//
//   - instruction accesses outnumber data accesses roughly 4:1 on average
//     (§6.2),
//   - pegwitd/pegwite have dominant DCache stall time (Fig. 2, >60%),
//   - g721d/g721e trigger few prefetches (small, cache-resident loops),
//   - rijndael*/gsme are rich in sequential/streaming data that prefetches
//     well (Fig. 12),
//   - fft/ifft/susan*/jpegd have regular strided (2-D) patterns, while
//     patricia/pegwit* are pointer-chasing and irregular.
//
// The program model mirrors real compiled code:
//
//   - The instruction stream walks a hot loop of basic blocks with
//     occasional taken branches that skip ahead (so next-line instruction
//     prefetching mispredicts at realistic rates), plus periodic calls
//     into colder helper functions.
//   - A small number of *streaming PCs* — fixed load/store slots in the
//     loop — each own a private data lane they walk with a constant stride
//     (or a 2-D run/row pattern), the way a load inside a loop streams
//     through its array. This is what PC-indexed prefetchers (stride, GHB)
//     train on.
//   - The remaining memory slots perform background accesses: stack and
//     lookup-table references that mostly hit the cache, or irregular
//     pointer-chasing reads that mostly miss, per app.
//
// Streams are exactly reproducible: the same app name and scale always
// produce the identical sequence, which the paper's fair-comparison
// methodology requires.
package workload

import (
	"fmt"
	"math"
	"sort"

	"ipex/internal/rng"
)

// Access is one committed instruction: an instruction fetch at PC plus an
// optional data reference.
type Access struct {
	PC       uint64
	DataAddr uint64
	HasData  bool
	Write    bool
}

// Generator produces a deterministic instruction stream.
type Generator interface {
	// Name returns the benchmark name (e.g. "fft").
	Name() string
	// Len returns the total number of instructions in the stream.
	Len() int
	// Next returns the next instruction, or ok=false at end of stream.
	Next() (a Access, ok bool)
	// Reset restarts the stream from the beginning; the replay is
	// identical to the original sequence.
	Reset()
}

// patKind selects a data-reference pattern.
type patKind int

const (
	// patSeq: each bound streaming PC walks its private lane sequentially
	// with a fixed stride — file/buffer processing.
	patSeq patKind = iota
	// patStride2D: short sequential runs (runBytes at strideBytes step)
	// separated by rowBytes jumps, per lane — image kernels, FFT
	// butterflies, block transforms.
	patStride2D
	// patRandom: uniformly random addresses in the region — pointer
	// chasing, hash/trie lookups (background; no PC binding needed).
	patRandom
	// patTable: a small lookup table / stack region that (mostly) fits in
	// the cache (background).
	patTable
)

// isStream reports whether the pattern needs dedicated streaming PCs.
func (k patKind) isStream() bool { return k == patSeq || k == patStride2D }

// dataSpec is one data-reference pattern.
type dataSpec struct {
	kind        patKind
	regionBytes uint64
	strideBytes uint64
	rowBytes    uint64 // patStride2D: spacing between runs
	runBytes    uint64 // patStride2D: sequential bytes per run
	// pcs is the number of dedicated streaming PCs (stream patterns);
	// weight is the share of background memory slots (background
	// patterns).
	pcs    int
	weight float64
}

// codeSpec describes the instruction footprint: a hot loop of basic blocks
// plus a set of colder functions called periodically. Instructions are 4
// bytes.
type codeSpec struct {
	loopBytes uint64
	funcs     int
	funcBytes uint64
	callEvery int
	callLen   int
	// bbBytes is the basic-block size; at each block end the stream takes
	// a forward jump of 1..jumpMaxBBs blocks with probability jumpProb.
	bbBytes    uint64
	jumpProb   float64
	jumpMaxBBs int
	// innerBytes/innerIters model loop nesting: an inner kernel of
	// innerBytes (placed halfway through the loop body) re-executes
	// innerIters times per outer lap. Streaming PCs live in the inner
	// kernel, which is what makes stream traffic a realistic share of the
	// dynamic access mix. Zero innerBytes disables nesting.
	innerBytes uint64
	innerIters int
}

// spec is the full parameter set of one app.
type spec struct {
	name       string
	insts      int
	memRatio   float64 // fraction of static instruction slots that access memory
	writeRatio float64 // fraction of memory slots that are stores
	code       codeSpec
	data       []dataSpec
}

// Address-space layout (well inside the smallest 2 MB main memory the
// paper sweeps in Fig. 20).
const (
	codeBase = 0x0001_0000
	dataBase = 0x0010_0000
	instLen  = 4
)

// laneState is the cursor of one streaming lane.
type laneState struct {
	cursor uint64 // patSeq: offset in lane
	rowPos uint64 // patStride2D: bytes consumed of the current run
	row    uint64 // patStride2D: current row start offset in lane
}

// binding maps a memory PC slot to its pattern (and lane for streams).
type binding struct {
	pat  int16
	lane int16
	wr   bool
}

// gen is the engine interpreting a spec.
type gen struct {
	spec spec
	seed uint64

	bindings map[uint64]binding
	bases    []uint64 // pattern base addresses
	laneSz   []uint64 // per-pattern lane size (streams)

	r        *rng.RNG
	produced int

	// instruction-side state
	loopPC     uint64
	inCall     int
	callPC     uint64
	callEnd    uint64
	sinceCall  int
	innerCount int // inner-kernel repetitions completed this lap

	// data-side state: lanes[pat][lane]
	lanes [][]laneState
}

// New returns the generator for the named app. scale multiplies the app's
// default instruction count (scale <= 0 means 1.0); tests use small scales,
// the experiment harness uses 1.0.
func New(name string, scale float64) (Generator, error) {
	s, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown app %q", name)
	}
	// NaN/Inf sail through both the "<= 0 means 1.0" default and the int
	// conversion below (int(NaN) is platform-defined), so a poisoned scale
	// would silently produce a nonsense instruction count.
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("workload: scale must be finite, got %g", scale)
	}
	if scale <= 0 {
		scale = 1
	}
	s.insts = int(float64(s.insts) * scale)
	if s.insts < 1 {
		s.insts = 1
	}
	if s.code.bbBytes == 0 {
		s.code.bbBytes = 48
	}
	if s.code.jumpMaxBBs == 0 {
		s.code.jumpMaxBBs = 2
	}
	g := &gen{spec: s, seed: hashName(name)}
	g.layout()
	g.Reset()
	return g, nil
}

// MustNew is New for app names known to be valid.
func MustNew(name string, scale float64) Generator {
	g, err := New(name, scale)
	if err != nil {
		panic(err)
	}
	return g
}

// Known reports whether name is one of the 20 apps.
func Known(name string) bool {
	_, ok := specs[name]
	return ok
}

// Names returns the 20 app names in alphabetical order (the order the
// paper's figures list them).
func Names() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func hashName(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// hashPC gives each static instruction slot a stable pseudo-random value
// in [0,1), mixed with the app seed.
func (g *gen) hashPC(pc, salt uint64) float64 {
	x := pc*0x9e3779b97f4a7c15 ^ g.seed ^ salt*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return float64(x>>11) / float64(1<<53)
}

// layout assigns data-region bases, classifies every static instruction
// slot, dedicates streaming PCs, and distributes the remaining memory
// slots over the background patterns.
func (g *gen) layout() {
	s := &g.spec
	g.bases = make([]uint64, len(s.data))
	g.laneSz = make([]uint64, len(s.data))
	base := uint64(dataBase)
	for i, d := range s.data {
		g.bases[i] = base
		base += d.regionBytes
		base = (base + 0xfff) &^ uint64(0xfff) // 4 kB align regions apart
		if d.kind.isStream() {
			n := d.pcs
			if n < 1 {
				n = 1
			}
			g.laneSz[i] = d.regionBytes / uint64(n)
		}
	}

	// Enumerate static slots: loop then functions.
	var slots []uint64
	for off := uint64(0); off < s.code.loopBytes; off += instLen {
		slots = append(slots, codeBase+off)
	}
	funcBase := codeBase + s.code.loopBytes
	for f := 0; f < s.code.funcs; f++ {
		for off := uint64(0); off < s.code.funcBytes; off += instLen {
			slots = append(slots, funcBase+uint64(f)*s.code.funcBytes+off)
		}
	}

	// Memory classification. Inner-kernel memory slots are kept separate:
	// streaming PCs are drawn from them so streams execute innerIters
	// times per lap, as real hot loops do.
	innerLo, innerHi := g.innerRange()
	var loopMem, innerMem, funcMem []uint64
	for _, pc := range slots {
		if g.hashPC(pc, 1) < s.memRatio {
			switch {
			case pc >= funcBase:
				funcMem = append(funcMem, pc)
			case pc >= innerLo && pc < innerHi:
				innerMem = append(innerMem, pc)
			default:
				loopMem = append(loopMem, pc)
			}
		}
	}

	g.bindings = make(map[uint64]binding, len(loopMem)+len(innerMem)+len(funcMem))

	// Dedicate streaming PCs: evenly spaced inner-kernel memory slots
	// (falling back to outer loop slots if nesting is disabled).
	needed := 0
	for _, d := range s.data {
		if d.kind.isStream() {
			needed += max(1, d.pcs)
		}
	}
	streamSrc := innerMem
	if len(streamSrc) == 0 {
		streamSrc = loopMem
	}
	streamPCs := pickSpaced(streamSrc, needed)
	si := 0
	for pi, d := range s.data {
		if !d.kind.isStream() {
			continue
		}
		n := max(1, d.pcs)
		for l := 0; l < n && si < len(streamPCs); l++ {
			pc := streamPCs[si]
			si++
			g.bindings[pc] = binding{
				pat:  int16(pi),
				lane: int16(l),
				wr:   g.hashPC(pc, 2) < s.writeRatio,
			}
		}
	}

	// Background patterns share the remaining memory slots by weight.
	var bgIdx []int
	var bgCum []float64
	cum := 0.0
	for pi, d := range s.data {
		if d.kind.isStream() {
			continue
		}
		cum += d.weight
		bgIdx = append(bgIdx, pi)
		bgCum = append(bgCum, cum)
	}
	assignBG := func(pc uint64) {
		if _, taken := g.bindings[pc]; taken || len(bgIdx) == 0 {
			return
		}
		x := g.hashPC(pc, 3) * cum
		k := 0
		for k < len(bgCum)-1 && x >= bgCum[k] {
			k++
		}
		g.bindings[pc] = binding{
			pat:  int16(bgIdx[k]),
			lane: 0,
			wr:   g.hashPC(pc, 2) < s.writeRatio,
		}
	}
	for _, pc := range loopMem {
		assignBG(pc)
	}
	for _, pc := range innerMem {
		assignBG(pc)
	}
	for _, pc := range funcMem {
		assignBG(pc)
	}
}

// innerRange returns the PC bounds of the inner kernel, or (0,0) when
// nesting is disabled.
func (g *gen) innerRange() (lo, hi uint64) {
	c := g.spec.code
	if c.innerBytes == 0 || c.innerIters <= 1 || c.innerBytes >= c.loopBytes {
		return 0, 0
	}
	start := (c.loopBytes / 2) &^ (instLen - 1)
	if start+c.innerBytes > c.loopBytes {
		start = c.loopBytes - c.innerBytes
	}
	return codeBase + start, codeBase + start + c.innerBytes
}

// pickSpaced selects n elements of xs at even spacing.
func pickSpaced(xs []uint64, n int) []uint64 {
	if n <= 0 || len(xs) == 0 {
		return nil
	}
	if n >= len(xs) {
		return append([]uint64(nil), xs...)
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}

// Name implements Generator.
func (g *gen) Name() string { return g.spec.name }

// Len implements Generator.
func (g *gen) Len() int { return g.spec.insts }

// Reset implements Generator.
func (g *gen) Reset() {
	g.r = rng.New(g.seed)
	g.produced = 0
	g.loopPC = 0
	g.inCall = 0
	g.callPC = 0
	g.sinceCall = 0
	g.innerCount = 0
	g.lanes = make([][]laneState, len(g.spec.data))
	for i, d := range g.spec.data {
		n := 1
		if d.kind.isStream() {
			n = max(1, d.pcs)
		}
		g.lanes[i] = make([]laneState, n)
	}
}

// Next implements Generator.
func (g *gen) Next() (Access, bool) {
	if g.produced >= g.spec.insts {
		return Access{}, false
	}
	g.produced++

	var a Access
	a.PC = g.nextPC()

	if b, ok := g.bindings[a.PC]; ok {
		a.HasData = true
		a.Write = b.wr
		a.DataAddr = g.nextData(b)
	}
	return a, true
}

// nextPC advances the instruction cursor: through the current function if
// a call is active, otherwise through the loop's basic blocks with
// occasional forward jumps and periodic calls.
func (g *gen) nextPC() uint64 {
	c := g.spec.code
	if g.inCall > 0 {
		g.inCall--
		pc := g.callPC
		g.callPC += instLen
		if g.callPC >= g.callEnd { // function body wraps (internal loop)
			g.callPC = g.callEnd - c.funcBytes
		}
		return pc
	}
	g.sinceCall++
	if c.funcs > 0 && c.callEvery > 0 && g.sinceCall >= c.callEvery {
		g.sinceCall = 0
		g.inCall = c.callLen
		fn := uint64(g.r.Intn(c.funcs))
		start := codeBase + c.loopBytes + fn*c.funcBytes
		// Calls enter the function at a random 128 B-aligned offset
		// (dispatch tables, early-exit paths): only callLen instructions
		// from the entry execute, so code prefetched beyond the return
		// point is frequently never fetched — the realistic wrong-path
		// waste of instruction prefetching.
		if c.funcBytes >= 256 {
			slots := int(c.funcBytes / 128)
			start += uint64(g.r.Intn(slots)) * 128
		}
		g.callPC = start
		g.callEnd = codeBase + c.loopBytes + (fn+1)*c.funcBytes
	}
	pc := codeBase + g.loopPC
	g.loopPC += instLen

	// Inner-kernel back edge: repeat the kernel innerIters times per lap.
	if lo, hi := g.innerRange(); hi != 0 && codeBase+g.loopPC == hi {
		g.innerCount++
		if g.innerCount < c.innerIters {
			g.loopPC = lo - codeBase
			return pc
		}
		g.innerCount = 0
	}

	inInner := false
	if lo, hi := g.innerRange(); hi != 0 {
		p := codeBase + g.loopPC
		inInner = p >= lo && p < hi
	}
	if g.loopPC >= c.loopBytes {
		g.loopPC = 0
	} else if !inInner && g.loopPC%c.bbBytes == 0 && c.jumpProb > 0 && g.r.Float64() < c.jumpProb {
		// Taken branch: skip 1..jumpMaxBBs basic blocks forward (never
		// into or across the inner kernel, whose back edge is separate).
		skip := uint64(1+g.r.Intn(c.jumpMaxBBs)) * c.bbBytes
		target := g.loopPC + skip
		if lo, hi := g.innerRange(); hi != 0 {
			tp := codeBase + target
			if tp > lo && tp <= hi {
				target = hi - codeBase // land just past the kernel
			}
		}
		g.loopPC = target
		for g.loopPC >= c.loopBytes {
			g.loopPC -= c.loopBytes
		}
	}
	return pc
}

// nextData advances the bound pattern lane and returns the address.
func (g *gen) nextData(b binding) uint64 {
	d := g.spec.data[b.pat]
	st := &g.lanes[b.pat][b.lane]
	laneBase := g.bases[b.pat] + uint64(b.lane)*g.laneSz[b.pat]
	switch d.kind {
	case patSeq:
		addr := laneBase + st.cursor
		st.cursor += d.strideBytes
		if st.cursor >= g.laneSz[b.pat] {
			st.cursor = 0
		}
		return addr
	case patStride2D:
		addr := laneBase + st.row + st.rowPos
		st.rowPos += d.strideBytes
		if st.rowPos >= d.runBytes {
			st.rowPos = 0
			st.row += d.rowBytes
			if st.row+d.runBytes > g.laneSz[b.pat] {
				st.row = 0
			}
		}
		return addr
	case patRandom:
		grain := d.strideBytes
		if grain == 0 {
			grain = 16
		}
		blocks := d.regionBytes / grain
		if blocks == 0 {
			blocks = 1
		}
		return g.bases[b.pat] + uint64(g.r.Intn(int(blocks)))*grain
	case patTable:
		grain := d.strideBytes
		if grain == 0 {
			grain = 4
		}
		entries := d.regionBytes / grain
		if entries == 0 {
			entries = 1
		}
		return g.bases[b.pat] + uint64(g.r.Intn(int(entries)))*grain
	}
	return g.bases[b.pat]
}
