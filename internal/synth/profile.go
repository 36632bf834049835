// Package synth generates deterministic synthetic instruction streams that
// stand in for the paper's SPEC2000 Alpha traces.
//
// We cannot ship SPEC2000 traces, so each benchmark is described by a
// statistical profile — instruction mix, dependency-distance distribution,
// data working-set structure, pointer-chasing degree, code footprint and
// branch predictability — and a generator synthesises an unbounded
// dynamic instruction stream from it. What the paper's experiments need
// from a trace is its *rate behaviour* (ILP, L1/L2 miss rates, mispredict
// rates, memory-level parallelism), which these parameters control
// directly.
package synth

import "fmt"

// Profile is the statistical description of one benchmark.
type Profile struct {
	// Name is the SPEC2000 benchmark name; Letter is the paper's
	// Figure 1 single-letter workload code.
	Name   string
	Letter byte
	// FP marks floating-point benchmarks (CFP2000).
	FP bool

	// LoadFrac and StoreFrac are the fractions of dynamic instructions
	// that are loads and stores.
	LoadFrac, StoreFrac float64
	// FPFrac is the fraction of non-memory, non-control instructions
	// that execute in the FP pipeline.
	FPFrac float64
	// LongOpFrac is the fraction of ALU operations that are
	// long-latency (integer multiply or FP divide).
	LongOpFrac float64

	// AvgBlockLen is the mean basic-block length in instructions; the
	// dynamic control-instruction fraction is roughly 1/AvgBlockLen.
	AvgBlockLen int
	// CodeBlocks is the number of static basic blocks; the code
	// footprint is approximately CodeBlocks*AvgBlockLen*4 bytes.
	CodeBlocks int
	// BranchBias is the probability a conditional branch follows its
	// per-site preferred direction: the knob for predictability.
	BranchBias float64
	// CallFrac is the fraction of blocks terminated by a call.
	CallFrac float64

	// FootprintBytes is the total data working set; accesses outside
	// the hot set spread over it.
	FootprintBytes uint64
	// HotBytes is the small hot region (stack, locals) and HotFrac the
	// fraction of memory accesses that stay inside it.
	HotBytes uint64
	HotFrac  float64
	// StrideFrac is the fraction of cold accesses that stream
	// sequentially (spatial locality); the rest are scattered.
	StrideFrac float64
	// ChaseFrac is the fraction of loads whose address depends on the
	// result of a recent load (pointer chasing — serialises misses and
	// destroys memory-level parallelism).
	ChaseFrac float64
	// Regions is the number of active scattered-access regions (one
	// page each); RegionJump is the per-access probability that the
	// chosen region migrates to a fresh page of the footprint. Together
	// they set the page-level locality: DTLB pressure scales with
	// RegionJump while L2 pressure scales with the fraction of cold
	// lines inside resident regions.
	Regions    int
	RegionJump float64

	// DepGeoP parameterises the geometric register-dependency distance:
	// higher values give shorter distances (longer chains, less ILP).
	DepGeoP float64
}

// MemBound reports whether the profile is expected to spend a substantial
// fraction of its time waiting for the shared L2 or memory — the property
// the paper's workload mixes are built around.
func (p Profile) MemBound() bool {
	return p.FootprintBytes > 8<<20 && p.HotFrac < 0.93
}

// Validate reports the first out-of-range parameter.
func (p Profile) Validate() error {
	frac := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("synth: %s: %s=%v out of [0,1]", p.Name, name, v)
		}
		return nil
	}
	for _, c := range []struct {
		n string
		v float64
	}{
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac},
		{"FPFrac", p.FPFrac}, {"LongOpFrac", p.LongOpFrac},
		{"BranchBias", p.BranchBias}, {"CallFrac", p.CallFrac},
		{"HotFrac", p.HotFrac}, {"StrideFrac", p.StrideFrac},
		{"ChaseFrac", p.ChaseFrac}, {"DepGeoP", p.DepGeoP},
		{"RegionJump", p.RegionJump},
	} {
		if err := frac(c.n, c.v); err != nil {
			return err
		}
	}
	if p.Regions < 1 {
		return fmt.Errorf("synth: %s: need at least one active region", p.Name)
	}
	if p.LoadFrac+p.StoreFrac > 0.9 {
		return fmt.Errorf("synth: %s: memory fraction %v implausible", p.Name, p.LoadFrac+p.StoreFrac)
	}
	if p.AvgBlockLen < 2 || p.CodeBlocks < 2 {
		return fmt.Errorf("synth: %s: degenerate code shape %d/%d", p.Name, p.AvgBlockLen, p.CodeBlocks)
	}
	if p.FootprintBytes == 0 || p.HotBytes == 0 || p.HotBytes > p.FootprintBytes {
		return fmt.Errorf("synth: %s: bad footprint %d/%d", p.Name, p.HotBytes, p.FootprintBytes)
	}
	if p.BranchBias < 0.5 {
		return fmt.Errorf("synth: %s: BranchBias %v below coin flip", p.Name, p.BranchBias)
	}
	return nil
}

// profiles is the table for the 26 SPEC2000 benchmarks of the paper's
// Figure 1 letter map. Parameter choices follow the community's published
// characterisations qualitatively: mcf/art/swim/lucas/equake/ammp/applu/
// mgrid/galgel are memory-bound with large footprints, gzip/crafty/eon/
// mesa/perlbmk/sixtrack are compute-bound with small ones, gcc/vortex/
// perlbmk have large code footprints, mcf/ammp/equake chase pointers.
var profiles = []Profile{
	{Name: "gzip", Letter: 'a', LoadFrac: 0.21, StoreFrac: 0.09, FPFrac: 0.02, LongOpFrac: 0.01,
		AvgBlockLen: 7, CodeBlocks: 600, BranchBias: 0.92, CallFrac: 0.03,
		FootprintBytes: 1 << 20, HotBytes: 4 << 10, HotFrac: 0.96, StrideFrac: 0.75, ChaseFrac: 0.02,
		Regions: 8, RegionJump: 0.002, DepGeoP: 0.45},
	{Name: "vpr", Letter: 'b', LoadFrac: 0.28, StoreFrac: 0.11, FPFrac: 0.12, LongOpFrac: 0.02,
		AvgBlockLen: 6, CodeBlocks: 900, BranchBias: 0.88, CallFrac: 0.04,
		FootprintBytes: 3 << 19, HotBytes: 6 << 10, HotFrac: 0.93, StrideFrac: 0.35, ChaseFrac: 0.08,
		Regions: 16, RegionJump: 0.002, DepGeoP: 0.50},
	{Name: "gcc", Letter: 'c', LoadFrac: 0.26, StoreFrac: 0.13, FPFrac: 0.01, LongOpFrac: 0.01,
		AvgBlockLen: 5, CodeBlocks: 2600, BranchBias: 0.91, CallFrac: 0.06,
		FootprintBytes: 3 << 20, HotBytes: 4 << 10, HotFrac: 0.94, StrideFrac: 0.45, ChaseFrac: 0.06,
		Regions: 16, RegionJump: 0.003, DepGeoP: 0.50},
	{Name: "mcf", Letter: 'd', LoadFrac: 0.31, StoreFrac: 0.09, FPFrac: 0.01, LongOpFrac: 0.01,
		AvgBlockLen: 6, CodeBlocks: 500, BranchBias: 0.89, CallFrac: 0.03,
		FootprintBytes: 96 << 20, HotBytes: 4 << 10, HotFrac: 0.86, StrideFrac: 0.10, ChaseFrac: 0.40,
		Regions: 32, RegionJump: 0.02, DepGeoP: 0.42},
	{Name: "crafty", Letter: 'e', LoadFrac: 0.27, StoreFrac: 0.07, FPFrac: 0.01, LongOpFrac: 0.02,
		AvgBlockLen: 8, CodeBlocks: 1400, BranchBias: 0.91, CallFrac: 0.05,
		FootprintBytes: 1 << 20, HotBytes: 4 << 10, HotFrac: 0.97, StrideFrac: 0.40, ChaseFrac: 0.02,
		Regions: 8, RegionJump: 0.002, DepGeoP: 0.40},
	{Name: "perlbmk", Letter: 'f', LoadFrac: 0.25, StoreFrac: 0.14, FPFrac: 0.01, LongOpFrac: 0.01,
		AvgBlockLen: 6, CodeBlocks: 2200, BranchBias: 0.93, CallFrac: 0.07,
		FootprintBytes: 3 << 19, HotBytes: 4 << 10, HotFrac: 0.96, StrideFrac: 0.50, ChaseFrac: 0.03,
		Regions: 8, RegionJump: 0.002, DepGeoP: 0.45},
	{Name: "parser", Letter: 'g', LoadFrac: 0.24, StoreFrac: 0.10, FPFrac: 0.01, LongOpFrac: 0.01,
		AvgBlockLen: 5, CodeBlocks: 1100, BranchBias: 0.90, CallFrac: 0.05,
		FootprintBytes: 8 << 20, HotBytes: 6 << 10, HotFrac: 0.94, StrideFrac: 0.30, ChaseFrac: 0.08,
		Regions: 24, RegionJump: 0.004, DepGeoP: 0.50},
	{Name: "eon", Letter: 'h', LoadFrac: 0.28, StoreFrac: 0.13, FPFrac: 0.25, LongOpFrac: 0.02,
		AvgBlockLen: 9, CodeBlocks: 1300, BranchBias: 0.94, CallFrac: 0.08,
		FootprintBytes: 1 << 20, HotBytes: 4 << 10, HotFrac: 0.98, StrideFrac: 0.55, ChaseFrac: 0.01,
		Regions: 8, RegionJump: 0.002, DepGeoP: 0.40},
	{Name: "gap", Letter: 'i', LoadFrac: 0.24, StoreFrac: 0.12, FPFrac: 0.02, LongOpFrac: 0.02,
		AvgBlockLen: 7, CodeBlocks: 1500, BranchBias: 0.92, CallFrac: 0.05,
		FootprintBytes: 4 << 20, HotBytes: 4 << 10, HotFrac: 0.94, StrideFrac: 0.55, ChaseFrac: 0.05,
		Regions: 16, RegionJump: 0.003, DepGeoP: 0.45},
	{Name: "vortex", Letter: 'j', LoadFrac: 0.27, StoreFrac: 0.16, FPFrac: 0.01, LongOpFrac: 0.01,
		AvgBlockLen: 7, CodeBlocks: 2400, BranchBias: 0.94, CallFrac: 0.08,
		FootprintBytes: 2 << 20, HotBytes: 4 << 10, HotFrac: 0.95, StrideFrac: 0.50, ChaseFrac: 0.04,
		Regions: 16, RegionJump: 0.003, DepGeoP: 0.42},
	{Name: "bzip2", Letter: 'k', LoadFrac: 0.24, StoreFrac: 0.10, FPFrac: 0.01, LongOpFrac: 0.01,
		AvgBlockLen: 7, CodeBlocks: 500, BranchBias: 0.90, CallFrac: 0.02,
		FootprintBytes: 6 << 20, HotBytes: 4 << 10, HotFrac: 0.94, StrideFrac: 0.70, ChaseFrac: 0.03,
		Regions: 16, RegionJump: 0.003, DepGeoP: 0.45},
	{Name: "twolf", Letter: 'l', LoadFrac: 0.28, StoreFrac: 0.08, FPFrac: 0.08, LongOpFrac: 0.02,
		AvgBlockLen: 6, CodeBlocks: 900, BranchBias: 0.87, CallFrac: 0.04,
		FootprintBytes: 3 << 19, HotBytes: 4 << 10, HotFrac: 0.90, StrideFrac: 0.25, ChaseFrac: 0.10,
		Regions: 16, RegionJump: 0.002, DepGeoP: 0.52},
	{Name: "art", Letter: 'm', LoadFrac: 0.32, StoreFrac: 0.07, FPFrac: 0.65, LongOpFrac: 0.02,
		AvgBlockLen: 10, CodeBlocks: 300, BranchBias: 0.95, CallFrac: 0.02,
		FootprintBytes: 24 << 20, HotBytes: 4 << 10, HotFrac: 0.76, StrideFrac: 0.60, ChaseFrac: 0.05,
		Regions: 32, RegionJump: 0.02, DepGeoP: 0.45},
	{Name: "swim", Letter: 'n', LoadFrac: 0.30, StoreFrac: 0.10, FPFrac: 0.80, LongOpFrac: 0.02,
		AvgBlockLen: 14, CodeBlocks: 250, BranchBias: 0.97, CallFrac: 0.01,
		FootprintBytes: 64 << 20, HotBytes: 4 << 10, HotFrac: 0.78, StrideFrac: 0.90, ChaseFrac: 0.01,
		Regions: 16, RegionJump: 0.01, DepGeoP: 0.35},
	{Name: "apsi", Letter: 'o', LoadFrac: 0.26, StoreFrac: 0.12, FPFrac: 0.70, LongOpFrac: 0.03,
		AvgBlockLen: 11, CodeBlocks: 700, BranchBias: 0.95, CallFrac: 0.03,
		FootprintBytes: 6 << 20, HotBytes: 6 << 10, HotFrac: 0.92, StrideFrac: 0.70, ChaseFrac: 0.02,
		Regions: 16, RegionJump: 0.004, DepGeoP: 0.40},
	{Name: "wupwise", Letter: 'p', LoadFrac: 0.24, StoreFrac: 0.10, FPFrac: 0.75, LongOpFrac: 0.04,
		AvgBlockLen: 12, CodeBlocks: 400, BranchBias: 0.96, CallFrac: 0.04,
		FootprintBytes: 3 << 20, HotBytes: 4 << 10, HotFrac: 0.93, StrideFrac: 0.75, ChaseFrac: 0.02,
		Regions: 16, RegionJump: 0.003, DepGeoP: 0.38},
	{Name: "equake", Letter: 'q', LoadFrac: 0.34, StoreFrac: 0.08, FPFrac: 0.60, LongOpFrac: 0.03,
		AvgBlockLen: 9, CodeBlocks: 400, BranchBias: 0.94, CallFrac: 0.02,
		FootprintBytes: 40 << 20, HotBytes: 4 << 10, HotFrac: 0.85, StrideFrac: 0.30, ChaseFrac: 0.25,
		Regions: 32, RegionJump: 0.02, DepGeoP: 0.48},
	{Name: "lucas", Letter: 'r', LoadFrac: 0.28, StoreFrac: 0.11, FPFrac: 0.82, LongOpFrac: 0.03,
		AvgBlockLen: 13, CodeBlocks: 300, BranchBias: 0.97, CallFrac: 0.01,
		FootprintBytes: 64 << 20, HotBytes: 4 << 10, HotFrac: 0.84, StrideFrac: 0.80, ChaseFrac: 0.02,
		Regions: 16, RegionJump: 0.01, DepGeoP: 0.36},
	{Name: "mesa", Letter: 's', LoadFrac: 0.25, StoreFrac: 0.12, FPFrac: 0.45, LongOpFrac: 0.02,
		AvgBlockLen: 9, CodeBlocks: 1200, BranchBias: 0.95, CallFrac: 0.06,
		FootprintBytes: 3 << 19, HotBytes: 4 << 10, HotFrac: 0.97, StrideFrac: 0.60, ChaseFrac: 0.02,
		Regions: 8, RegionJump: 0.002, DepGeoP: 0.40},
	{Name: "fma3d", Letter: 't', LoadFrac: 0.27, StoreFrac: 0.13, FPFrac: 0.65, LongOpFrac: 0.03,
		AvgBlockLen: 10, CodeBlocks: 1600, BranchBias: 0.95, CallFrac: 0.05,
		FootprintBytes: 6 << 20, HotBytes: 6 << 10, HotFrac: 0.93, StrideFrac: 0.55, ChaseFrac: 0.04,
		Regions: 24, RegionJump: 0.004, DepGeoP: 0.42},
	{Name: "sixtrack", Letter: 'u', LoadFrac: 0.23, StoreFrac: 0.09, FPFrac: 0.78, LongOpFrac: 0.04,
		AvgBlockLen: 12, CodeBlocks: 900, BranchBias: 0.96, CallFrac: 0.03,
		FootprintBytes: 3 << 19, HotBytes: 4 << 10, HotFrac: 0.97, StrideFrac: 0.70, ChaseFrac: 0.01,
		Regions: 8, RegionJump: 0.002, DepGeoP: 0.38},
	{Name: "facerec", Letter: 'v', LoadFrac: 0.28, StoreFrac: 0.08, FPFrac: 0.72, LongOpFrac: 0.03,
		AvgBlockLen: 11, CodeBlocks: 500, BranchBias: 0.95, CallFrac: 0.03,
		FootprintBytes: 6 << 20, HotBytes: 6 << 10, HotFrac: 0.92, StrideFrac: 0.75, ChaseFrac: 0.02,
		Regions: 16, RegionJump: 0.004, DepGeoP: 0.40},
	{Name: "applu", Letter: 'w', LoadFrac: 0.29, StoreFrac: 0.11, FPFrac: 0.80, LongOpFrac: 0.04,
		AvgBlockLen: 13, CodeBlocks: 450, BranchBias: 0.96, CallFrac: 0.02,
		FootprintBytes: 40 << 20, HotBytes: 4 << 10, HotFrac: 0.86, StrideFrac: 0.85, ChaseFrac: 0.01,
		Regions: 16, RegionJump: 0.01, DepGeoP: 0.38},
	{Name: "galgel", Letter: 'x', LoadFrac: 0.28, StoreFrac: 0.09, FPFrac: 0.78, LongOpFrac: 0.03,
		AvgBlockLen: 12, CodeBlocks: 500, BranchBias: 0.96, CallFrac: 0.02,
		FootprintBytes: 16 << 20, HotBytes: 6 << 10, HotFrac: 0.90, StrideFrac: 0.70, ChaseFrac: 0.02,
		Regions: 24, RegionJump: 0.008, DepGeoP: 0.40},
	{Name: "ammp", Letter: 'y', LoadFrac: 0.30, StoreFrac: 0.08, FPFrac: 0.60, LongOpFrac: 0.04,
		AvgBlockLen: 9, CodeBlocks: 600, BranchBias: 0.93, CallFrac: 0.03,
		FootprintBytes: 32 << 20, HotBytes: 4 << 10, HotFrac: 0.85, StrideFrac: 0.25, ChaseFrac: 0.30,
		Regions: 32, RegionJump: 0.02, DepGeoP: 0.48},
	{Name: "mgrid", Letter: 'z', LoadFrac: 0.32, StoreFrac: 0.08, FPFrac: 0.82, LongOpFrac: 0.03,
		AvgBlockLen: 14, CodeBlocks: 300, BranchBias: 0.97, CallFrac: 0.01,
		FootprintBytes: 40 << 20, HotBytes: 4 << 10, HotFrac: 0.87, StrideFrac: 0.90, ChaseFrac: 0.01,
		Regions: 16, RegionJump: 0.01, DepGeoP: 0.36},
}

// Profiles returns all benchmark profiles in letter order.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// ByLetter returns the profile for the paper's one-letter code.
func ByLetter(letter byte) (Profile, bool) {
	for _, p := range profiles {
		if p.Letter == letter {
			return p, true
		}
	}
	return Profile{}, false
}

// ByName returns the profile for a benchmark name.
func ByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
