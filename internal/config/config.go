// Package config holds the simulated machine parameters.
//
// The defaults reproduce Figure 1 of the paper ("Simulation parameters and
// Workloads"): an 11-stage out-of-order SMT core with 64-entry issue
// queues, 320 shared physical registers, a per-thread 256-entry ROB, a
// perceptron branch predictor, banked L1 caches and a shared 4-banked L2
// connected through a bus.
package config

import "fmt"

// Core describes one SMT core.
type Core struct {
	// ThreadsPerCore is the SMT degree (hardware contexts per core).
	ThreadsPerCore int
	// FetchWidth is the maximum instructions fetched per cycle
	// (shared across the threads selected by the IFetch policy).
	FetchWidth int
	// FetchThreads is the maximum number of threads fetched from per
	// cycle (the "2" in an ICOUNT.2.8 front end).
	FetchThreads int
	// DecodeWidth, RenameWidth, CommitWidth bound the respective stages.
	DecodeWidth, RenameWidth, CommitWidth int
	// FrontEndStages is the fetch-to-rename depth in cycles. The paper's
	// pipeline is 11 stages deep overall.
	FrontEndStages int
	// IntQueue, FPQueue, LSQueue are the shared issue-queue capacities.
	IntQueue, FPQueue, LSQueue int
	// IntUnits, FPUnits, LSUnits are the execution unit counts.
	IntUnits, FPUnits, LSUnits int
	// PhysRegs is the shared physical register file size; rename blocks
	// when it is exhausted. Architectural state is carved out of this
	// pool at reset (NumArchRegs per thread).
	PhysRegs int
	// ROBPerThread is the per-thread reorder-buffer capacity (the paper
	// marks the ROB as replicated per thread).
	ROBPerThread int
	// RASEntries is the per-thread return-address-stack depth.
	RASEntries int
	// BTBEntries and BTBAssoc shape the branch target buffer.
	BTBEntries, BTBAssoc int
	// PerceptronCount and PerceptronHistory shape the branch predictor
	// ("perceptron (4K local, 256 perceps.)").
	PerceptronCount, PerceptronHistory int
	// MSHREntries is the per-core miss status holding register count.
	MSHREntries int
	// RegReservePerThread is the number of rename registers guaranteed
	// to each hardware context: a thread may never hold more than
	// (pool - reserve*(threads-1)) registers, so a stalled thread can
	// hog most — but not all — of the shared pool. Real SMT cores
	// reserve per-thread resources the same way.
	RegReservePerThread int
}

// CacheGeom describes one cache level's geometry.
type CacheGeom struct {
	// SizeBytes is total capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// Banks is the number of independently addressed banks.
	Banks int
	// Latency is the access (hit) latency of one bank in cycles; banks
	// are single-ported, so a bank is busy for Latency cycles per access.
	Latency int
}

// Memory describes the shared memory system.
type Memory struct {
	// L1I and L1D are the per-core first-level caches.
	L1I, L1D CacheGeom
	// L1MissLatency is the minimum load-issue-to-data latency of an
	// access that misses L1 and hits an idle L2 bank (the paper's
	// "L1 lat./miss 3/22 cycs." and the MIN of the MFLUSH environment).
	L1MissLatency int
	// L2 is the shared second-level cache.
	L2 CacheGeom
	// BusDelay is the one-way L1<->L2 bus transfer latency in cycles,
	// excluding arbitration queueing.
	BusDelay int
	// L2FillOccupancy is how long a line fill holds an L2 bank's port.
	// Fills go through buffered write ports, so they hold the bank for
	// less time than a demand tag-check+read (L2.Latency).
	L2FillOccupancy int
	// MainMemoryLatency is the L2-miss service latency.
	MainMemoryLatency int
	// TLBEntries is the fully-associative D-TLB size; TLBMissLatency is
	// the page-walk penalty.
	TLBEntries, TLBMissLatency int
	// PageBytes is the virtual memory page size used by the TLB.
	PageBytes int
}

// Config is the complete machine description for one simulation.
type Config struct {
	// Cores is the number of replicated SMT cores sharing the L2.
	Cores int
	// Core holds the per-core parameters.
	Core Core
	// Mem holds the memory system parameters.
	Mem Memory
	// L1Latency is the L1 data/instruction hit latency.
	L1Latency int
	// Seed feeds all random streams in the simulation.
	Seed uint64
}

// Default returns the paper's Figure 1 machine with the given number of
// cores.
func Default(cores int) Config {
	return Config{
		Cores: cores,
		Core: Core{
			ThreadsPerCore:      2,
			FetchWidth:          8,
			FetchThreads:        2,
			DecodeWidth:         8,
			RenameWidth:         8,
			CommitWidth:         8,
			FrontEndStages:      7, // fetch..queue-insert portion of the 11-stage pipe
			IntQueue:            64,
			FPQueue:             64,
			LSQueue:             64,
			IntUnits:            4,
			FPUnits:             3,
			LSUnits:             2,
			PhysRegs:            320,
			ROBPerThread:        256,
			RASEntries:          100,
			BTBEntries:          256,
			BTBAssoc:            4,
			PerceptronCount:     256,
			PerceptronHistory:   16,
			MSHREntries:         16,
			RegReservePerThread: 24,
		},
		Mem: Memory{
			L1I:           CacheGeom{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4, Banks: 8, Latency: 3},
			L1D:           CacheGeom{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4, Banks: 8, Latency: 3},
			L1MissLatency: 22,
			// Nominally 4MB; 12-way with 64B lines over 4 banks does not
			// divide 4MB exactly, so this is the closest realizable size
			// (1365 sets per bank, 4,193,280 bytes, 0.02% below 4MB).
			L2:                CacheGeom{SizeBytes: 1365 * 12 * 64 * 4, LineBytes: 64, Assoc: 12, Banks: 4, Latency: 15},
			BusDelay:          2,
			L2FillOccupancy:   4,
			MainMemoryLatency: 250,
			TLBEntries:        512,
			TLBMissLatency:    300,
			PageBytes:         8 << 10,
		},
		L1Latency: 3,
		Seed:      0x5EED,
	}
}

// MTDelay returns the paper's Multicore Traffic delay:
//
//	MT = (L1_L2_Bus_delay + L2_Bank_Acc_delay) * (Num_Cores - 1)
//
// It is zero for a single core.
func (c *Config) MTDelay() int {
	return (c.Mem.BusDelay + c.Mem.L2.Latency) * (c.Cores - 1)
}

// MinL2Latency returns MIN of the MFLUSH operational environment: the
// latency of an uncontended L2 hit as seen from load issue.
func (c *Config) MinL2Latency() int { return c.Mem.L1MissLatency }

// MaxL2Latency returns MAX of the MFLUSH operational environment: the
// latency of an L2 miss served by main memory.
func (c *Config) MaxL2Latency() int {
	return c.Mem.L1MissLatency + c.Mem.MainMemoryLatency
}

// Validate reports the first structural problem with the configuration, or
// nil if it is usable.
func (c *Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("config: need at least 1 core, have %d", c.Cores)
	case c.Core.ThreadsPerCore < 1:
		return fmt.Errorf("config: need at least 1 thread per core, have %d", c.Core.ThreadsPerCore)
	case c.Core.FetchWidth < 1 || c.Core.FetchThreads < 1:
		return fmt.Errorf("config: fetch width/threads must be positive")
	case c.Core.IntQueue < 1 || c.Core.FPQueue < 1 || c.Core.LSQueue < 1:
		return fmt.Errorf("config: issue queues must be non-empty")
	case c.Core.IntUnits < 1 || c.Core.LSUnits < 1:
		return fmt.Errorf("config: need at least one int and one ld/st unit")
	case c.Core.ROBPerThread < 1:
		return fmt.Errorf("config: ROB must be non-empty")
	case c.Core.MSHREntries < 1:
		return fmt.Errorf("config: need at least one MSHR")
	}
	// Rename must be able to hold architectural state for every thread
	// and still have at least one spare register to make progress.
	archNeed := c.Core.ThreadsPerCore * 64 // isa.NumArchRegs; kept literal to avoid the import cycle
	if c.Core.PhysRegs <= archNeed {
		return fmt.Errorf("config: %d physical registers cannot back %d architectural ones",
			c.Core.PhysRegs, archNeed)
	}
	for _, g := range []struct {
		name string
		g    CacheGeom
	}{{"L1I", c.Mem.L1I}, {"L1D", c.Mem.L1D}, {"L2", c.Mem.L2}} {
		if err := g.g.validate(); err != nil {
			return fmt.Errorf("config: %s: %w", g.name, err)
		}
	}
	if c.Mem.PageBytes < c.Mem.L1D.LineBytes {
		return fmt.Errorf("config: page smaller than a cache line")
	}
	if c.Mem.L1MissLatency <= c.L1Latency {
		return fmt.Errorf("config: L1 miss latency must exceed L1 hit latency")
	}
	return nil
}

// MaxAssoc is the largest cache associativity the simulator supports:
// internal/cache keeps each set's LRU order as 4-bit way numbers in one
// 64-bit word, which holds 16 of them.
const MaxAssoc = 16

func (g CacheGeom) validate() error {
	switch {
	case g.SizeBytes <= 0 || g.LineBytes <= 0 || g.Assoc <= 0 || g.Banks <= 0:
		return fmt.Errorf("non-positive geometry %+v", g)
	case g.Assoc > MaxAssoc:
		return fmt.Errorf("associativity %d exceeds the %d-way limit", g.Assoc, MaxAssoc)
	case g.LineBytes&(g.LineBytes-1) != 0:
		return fmt.Errorf("line size %d not a power of two", g.LineBytes)
	case g.Banks&(g.Banks-1) != 0:
		return fmt.Errorf("bank count %d not a power of two", g.Banks)
	case g.SizeBytes%(g.LineBytes*g.Assoc*g.Banks) != 0:
		return fmt.Errorf("size %d not divisible into %d-way banked sets", g.SizeBytes, g.Assoc)
	case g.Latency < 1:
		return fmt.Errorf("latency must be at least 1 cycle")
	}
	return nil
}

// Sets returns the number of sets per bank.
func (g CacheGeom) Sets() int { return g.SizeBytes / (g.LineBytes * g.Assoc * g.Banks) }
