// Package mem models the on-chip nonvolatile main memory (NVM) of the NVP:
// a single bank reached over a short, ultra-low-power bus, with per-block
// access latency/energy taken from the technology tables in internal/energy.
//
// The NVM is the persistence root of the system: it survives power failure,
// so JIT checkpoints write into it and program state restores read from it.
package mem

import "ipex/internal/energy"

// AccessKind distinguishes the traffic classes the statistics track.
type AccessKind int

const (
	// DemandRead is a cache-miss fill read.
	DemandRead AccessKind = iota
	// PrefetchRead is a prefetcher-issued block read.
	PrefetchRead
	// WritebackWrite is a dirty-block eviction write.
	WritebackWrite
	// CheckpointWrite is a JIT-backup write of a dirty block or registers.
	CheckpointWrite
	// RestoreRead is a reboot-time read of checkpointed state.
	RestoreRead
)

// Stats counts NVM traffic in block-sized accesses.
type Stats struct {
	DemandReads      uint64
	PrefetchReads    uint64
	WritebackWrites  uint64
	CheckpointWrites uint64
	RestoreReads     uint64
}

// TotalAccesses returns all block accesses regardless of class.
func (s Stats) TotalAccesses() uint64 {
	return s.DemandReads + s.PrefetchReads + s.WritebackWrites + s.CheckpointWrites + s.RestoreReads
}

// TrafficAccesses returns the main-memory traffic the paper's Figure 13
// reports: demand + prefetch reads + writebacks (checkpoint traffic is
// reported separately as Bk+Rst).
func (s Stats) TrafficAccesses() uint64 {
	return s.DemandReads + s.PrefetchReads + s.WritebackWrites
}

// NVM is one nonvolatile main-memory instance.
type NVM struct {
	params energy.NVMParams
	stats  Stats
}

// New returns an NVM with the given parameters.
func New(params energy.NVMParams) *NVM {
	return &NVM{params: params}
}

// Params returns the technology parameters in use.
func (m *NVM) Params() energy.NVMParams { return m.params }

// Stats returns a copy of the traffic counters.
func (m *NVM) Stats() Stats { return m.stats }

// Read performs one block read of the given kind and returns its latency in
// cycles and energy in nJ.
func (m *NVM) Read(kind AccessKind) (cycles uint64, nj energy.NJ) {
	switch kind {
	case DemandRead:
		m.stats.DemandReads++
	case PrefetchRead:
		m.stats.PrefetchReads++
	case RestoreRead:
		m.stats.RestoreReads++
	default:
		m.stats.DemandReads++
	}
	return m.params.ReadCycles, m.params.ReadNJ
}

// Write performs one block write of the given kind and returns its latency
// in cycles and energy in nJ.
func (m *NVM) Write(kind AccessKind) (cycles uint64, nj energy.NJ) {
	switch kind {
	case WritebackWrite:
		m.stats.WritebackWrites++
	case CheckpointWrite:
		m.stats.CheckpointWrites++
	default:
		m.stats.WritebackWrites++
	}
	return m.params.WriteCycles, m.params.WriteNJ
}

// ReadDemand is Read(DemandRead) without the kind dispatch — small enough
// to inline into the simulator's miss paths.
func (m *NVM) ReadDemand() (cycles uint64, nj energy.NJ) {
	m.stats.DemandReads++
	return m.params.ReadCycles, m.params.ReadNJ
}

// ReadPrefetch is Read(PrefetchRead) without the kind dispatch (inlinable).
func (m *NVM) ReadPrefetch() (cycles uint64, nj energy.NJ) {
	m.stats.PrefetchReads++
	return m.params.ReadCycles, m.params.ReadNJ
}

// WriteWriteback is Write(WritebackWrite) without the kind dispatch
// (inlinable).
func (m *NVM) WriteWriteback() (cycles uint64, nj energy.NJ) {
	m.stats.WritebackWrites++
	return m.params.WriteCycles, m.params.WriteNJ
}

// Reset clears the traffic counters and switches to the given parameters,
// restoring the just-constructed state in place; the run arena recycles one
// NVM instance across runs with it (the parameters are plain values, so a
// technology change needs no reallocation).
func (m *NVM) Reset(params energy.NVMParams) {
	m.params = params
	m.stats = Stats{}
}

// LeakNJPerCycle returns the array's leakage energy per CPU cycle.
func (m *NVM) LeakNJPerCycle() energy.NJ {
	return energy.LeakNJPerCycle(m.params.LeakMW)
}
