package synth

import (
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Generator synthesises the dynamic instruction stream for one running
// instance of a benchmark. It implements trace.Source.
//
// The generator materialises a small static control-flow graph (basic
// blocks with per-site branch biases and targets) and walks it, emitting
// body instructions whose classes, register dependencies and memory
// addresses are drawn from the profile's distributions. The walk is fully
// deterministic for a given (profile, seed).
type Generator struct {
	prof Profile
	r    *rng.Rand

	// Static program shape.
	blocks    []block
	codeBase  uint64
	dataBase  uint64
	coldLines int // footprint in cache lines
	coldPages int
	hotLines  int
	// regions are the active scattered-access pages; regionZipf skews
	// accesses towards the hotter regions.
	regions    []uint64 // page index within the footprint
	regionZipf *rng.Zipf

	// Walk state.
	cur       int // current block
	pos       int // instruction index within the block
	callStack []int
	// Dependency chains: the program interleaves several independent
	// computation chains (the source of its instruction-level
	// parallelism). Each chain owns a disjoint register range so a
	// chain's live value is never clobbered by another chain before its
	// consumer renames.
	chains       []chainState
	regsPerChain int
	lastLoadDest isa.Reg
	// streams are the sequential access pointers for strided accesses.
	streams   [numStreams]uint64
	streamSel int
}

type chainState struct {
	tail   isa.Reg // most recent destination, 0 if none yet
	isLoad bool    // tail was produced by a load
	seq    int     // register rotation within the chain's range
}

type block struct {
	start  uint64 // first instruction PC
	length int    // body instructions before the terminator
	term   isa.Class
	target int     // taken-successor block index (branch/call)
	bias   float64 // probability the terminator branch is taken
}

const (
	recentDepth  = 16
	numStreams   = 4
	lineBytes    = 64
	pageBytes    = 8 << 10
	linesPerPage = pageBytes / lineBytes
)

// NewGenerator builds a generator. addrBase offsets both the code and the
// data space so co-scheduled instances do not share cache lines (SPEC
// multiprogrammed workloads share nothing). The profile must validate.
func NewGenerator(prof Profile, seed uint64, addrBase uint64) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	r := rng.New(seed ^ 0xC0FFEE)
	g := &Generator{
		prof:      prof,
		r:         r,
		codeBase:  addrBase,
		dataBase:  addrBase + 1<<30, // code and data live far apart
		coldLines: int(prof.FootprintBytes / lineBytes),
		coldPages: int(prof.FootprintBytes / pageBytes),
		hotLines:  int(prof.HotBytes / lineBytes),
	}
	if g.coldLines < 1 {
		g.coldLines = 1
	}
	if g.coldPages < 1 {
		g.coldPages = 1
	}
	if g.hotLines < 1 {
		g.hotLines = 1
	}
	// Scattered accesses work over a small set of active pages
	// ("regions") that occasionally migrate across the footprint. This
	// is what gives real programs simultaneous page-level locality (few
	// TLB misses) and line-level churn (many cache misses).
	g.regions = make([]uint64, prof.Regions)
	for i := range g.regions {
		g.regions[i] = uint64(r.Intn(g.coldPages))
	}
	g.regionZipf = rng.NewZipf(prof.Regions, 0.7)
	// Chain count from the dependency-distance knob: tighter dependency
	// distances (higher DepGeoP) mean fewer independent chains.
	nchains := int(2/prof.DepGeoP + 0.5)
	if nchains < 2 {
		nchains = 2
	}
	if nchains > 8 {
		nchains = 8
	}
	g.chains = make([]chainState, nchains)
	g.regsPerChain = 62 / nchains
	g.buildCFG(r)
	for i := range g.streams {
		g.streams[i] = g.dataBase + uint64(r.Intn(g.coldLines))*lineBytes
	}
	g.cur = 0
	return g
}

// buildCFG materialises the static blocks.
func (g *Generator) buildCFG(r *rng.Rand) {
	n := g.prof.CodeBlocks
	g.blocks = make([]block, n)
	pc := g.codeBase
	for i := range g.blocks {
		// Block lengths vary around the mean (at least 2).
		length := g.prof.AvgBlockLen/2 + r.Intn(g.prof.AvgBlockLen+1)
		if length < 2 {
			length = 2
		}
		b := &g.blocks[i]
		b.start = pc
		b.length = length
		pc += uint64(length+1) * 4 // body + terminator

		switch {
		case r.Bool(g.prof.CallFrac):
			b.term = isa.ClassCall
		default:
			b.term = isa.ClassBranch
		}
		// Taken targets favour nearby blocks (loops) with occasional
		// long jumps, giving the icache realistic locality.
		if r.Bool(0.7) {
			delta := r.Intn(9) - 4
			b.target = ((i+delta)%n + n) % n
		} else {
			b.target = r.Intn(n)
		}
		if b.target == i { // no self-loop degenerate case
			b.target = (i + 1) % n
		}
		// Per-site preferred direction: most sites are biased taken
		// (loop backedges), the rest biased not-taken.
		if r.Bool(0.6) {
			b.bias = g.prof.BranchBias
		} else {
			b.bias = 1 - g.prof.BranchBias
		}
	}
}

// Next implements trace.Source.
func (g *Generator) Next(out *isa.Inst) {
	b := &g.blocks[g.cur]
	if g.pos < b.length {
		g.emitBody(b, out)
		g.pos++
		return
	}
	g.emitTerminator(b, out)
	g.pos = 0
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

func (g *Generator) emitBody(b *block, out *isa.Inst) {
	out.PC = b.start + uint64(g.pos)*4
	out.Taken = false
	out.Target = 0
	out.Addr = 0
	out.MissLatency = 0

	u := g.r.Float64()
	switch {
	case u < g.prof.LoadFrac:
		out.Class = isa.ClassLoad
		g.fillLoad(out)
	case u < g.prof.LoadFrac+g.prof.StoreFrac:
		out.Class = isa.ClassStore
		out.Dest = isa.InvalidReg
		out.Src1 = g.chainTail(g.r.Intn(len(g.chains))) // store data
		out.Src2 = isa.InvalidReg
		out.Addr = g.dataAddr()
	default:
		if g.r.Bool(g.prof.FPFrac) {
			if g.r.Bool(g.prof.LongOpFrac) {
				out.Class = isa.ClassFPDiv
			} else {
				out.Class = isa.ClassFP
			}
		} else {
			if g.r.Bool(g.prof.LongOpFrac) {
				out.Class = isa.ClassIntMul
			} else {
				out.Class = isa.ClassInt
			}
		}
		c := g.r.Intn(len(g.chains))
		out.Src1 = g.chainTail(c)
		// Cross-chain sources occasionally couple chains; most ops take
		// an immediate or loop-invariant second operand.
		if g.r.Bool(0.35) {
			out.Src2 = g.chainTail(g.r.Intn(len(g.chains)))
		} else {
			out.Src2 = isa.InvalidReg
		}
		out.Dest = g.advanceChain(c, false)
	}
}

func (g *Generator) fillLoad(out *isa.Inst) {
	c := g.r.Intn(len(g.chains))
	switch {
	case g.r.Bool(g.prof.ChaseFrac) && g.lastLoadDest != 0:
		// Pointer chasing: the address comes from a recent load result,
		// so this load cannot issue until that one returns.
		out.Src1 = g.lastLoadDest
	case g.r.Bool(0.6):
		// Induction-variable addressing: the address is ready at rename
		// (the source of memory-level parallelism).
		out.Src1 = isa.InvalidReg
	default:
		out.Src1 = g.chainTail(c)
	}
	out.Src2 = isa.InvalidReg
	out.Addr = g.dataAddr()
	out.Dest = g.advanceChain(c, true)
	g.lastLoadDest = out.Dest
}

// chainTail returns the live register of chain c (InvalidReg before its
// first write).
func (g *Generator) chainTail(c int) isa.Reg {
	if g.chains[c].tail == 0 {
		return isa.InvalidReg
	}
	return g.chains[c].tail
}

// advanceChain allocates the next destination register in chain c's
// range and records it as the chain's live value.
func (g *Generator) advanceChain(c int, isLoad bool) isa.Reg {
	ch := &g.chains[c]
	ch.seq++
	reg := isa.Reg(1 + c*g.regsPerChain + ch.seq%g.regsPerChain)
	ch.tail = reg
	ch.isLoad = isLoad
	return reg
}

func (g *Generator) emitTerminator(b *block, out *isa.Inst) {
	out.PC = b.start + uint64(b.length)*4
	out.Addr = 0
	out.MissLatency = 0
	out.Dest = isa.InvalidReg
	// Loop branches test induction variables, not just-loaded values:
	// prefer a recent non-load producer so branch resolution is rarely
	// chained behind a cache miss.
	out.Src1 = g.pickNonLoadSrc()
	out.Src2 = isa.InvalidReg

	switch b.term {
	case isa.ClassCall:
		out.Class = isa.ClassCall
		out.Taken = true
		out.Target = g.blocks[b.target].start
		if len(g.callStack) < 32 {
			g.callStack = append(g.callStack, g.cur)
		}
		g.cur = b.target
		return
	default:
		// A fraction of blocks return when the call stack is non-empty;
		// this pairs returns with calls dynamically.
		if len(g.callStack) > 0 && g.r.Bool(g.prof.CallFrac*1.2) {
			out.Class = isa.ClassReturn
			out.Taken = true
			ret := g.callStack[len(g.callStack)-1]
			g.callStack = g.callStack[:len(g.callStack)-1]
			// Resume at the block after the call site.
			g.cur = (ret + 1) % len(g.blocks)
			out.Target = g.blocks[g.cur].start
			return
		}
		out.Class = isa.ClassBranch
		taken := g.r.Bool(b.bias)
		out.Taken = taken
		if taken {
			out.Target = g.blocks[b.target].start
			g.cur = b.target
		} else {
			g.cur = (g.cur + 1) % len(g.blocks)
		}
	}
}

// dataAddr draws one memory address from the profile's locality model.
func (g *Generator) dataAddr() uint64 {
	if g.r.Bool(g.prof.HotFrac) {
		// Hot region: uniform over a small set that stays L1-resident.
		line := g.r.Intn(g.hotLines)
		return g.dataBase + uint64(line)*lineBytes + uint64(g.r.Intn(lineBytes)&^7)
	}
	if g.r.Bool(g.prof.StrideFrac) {
		// Streaming: advance one of the sequential pointers by 8 bytes.
		g.streamSel = (g.streamSel + 1) % numStreams
		a := g.streams[g.streamSel]
		g.streams[g.streamSel] += 8
		limit := g.dataBase + uint64(g.coldLines)*lineBytes
		if g.streams[g.streamSel] >= limit {
			g.streams[g.streamSel] = g.dataBase + uint64(g.r.Intn(g.coldLines))*lineBytes
		}
		return a
	}
	// Scattered: pick an active region (page), occasionally migrating it
	// to a fresh page, then a random line within it.
	idx := g.regionZipf.Sample(g.r)
	if g.r.Bool(g.prof.RegionJump) {
		g.regions[idx] = uint64(g.r.Intn(g.coldPages))
	}
	page := g.regions[idx]
	return g.dataBase + page*pageBytes + uint64(g.r.Intn(linesPerPage))*lineBytes +
		uint64(g.r.Intn(lineBytes)&^7)
}

// pickNonLoadSrc returns the live register of a chain whose tail is not a
// load result, so branch resolution is rarely chained behind a cache
// miss. Falls back to InvalidReg (an always-ready flag test) when every
// chain ends in a load.
func (g *Generator) pickNonLoadSrc() isa.Reg {
	for c := range g.chains {
		if !g.chains[c].isLoad && g.chains[c].tail != 0 {
			return g.chains[c].tail
		}
	}
	return isa.InvalidReg
}

var _ trace.Source = (*Generator)(nil)
