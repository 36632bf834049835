package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/synth"
	"repro/internal/trace"
)

// funcSource adapts a function to trace.Source.
type funcSource func(*isa.Inst)

func (f funcSource) Next(out *isa.Inst) { f(out) }

// harness wires one core to a private L2 system.
type harness struct {
	core *Core
	l2   *mem.L2System
	now  uint64
}

func newHarness(t *testing.T, threads int, pol *policy.Policy, srcs ...trace.Source) *harness {
	t.Helper()
	cfg := config.Default(1)
	cfg.Core.ThreadsPerCore = threads
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	l2 := mem.NewL2System(cfg)
	bases := make([]uint64, threads)
	for i := range bases {
		bases[i] = synth.DataBase(uint64(i+1) << 34)
	}
	if pol == nil {
		pol = policy.NewICOUNT()
	}
	c := New(0, &cfg, pol, l2, srcs, bases)
	return &harness{core: c, l2: l2}
}

func (h *harness) run(t *testing.T, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		for _, r := range h.l2.Tick(h.now) {
			h.core.HandleResponse(r, h.now)
		}
		for _, r := range h.l2.DrainMissDetected() {
			h.core.HandleL2MissDetected(r, h.now)
		}
		h.core.Tick(h.now)
		h.now++
	}
	if err := h.core.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// warm runs cold-start cycles (initial TLB walks, icache fills) and then
// resets measurement so tests observe steady state.
func (h *harness) warm(t *testing.T, cycles int) {
	t.Helper()
	h.run(t, cycles)
	h.core.ResetMeasurement()
}

// loopPC hands out PCs looping through a small code region, giving the
// instruction stream realistic icache/ITLB locality.
type loopPC struct {
	i    int
	base uint64
	span int // instructions in the loop
}

func (s *loopPC) next() uint64 {
	s.i++
	return s.base + uint64(s.i%s.span)*4
}

func TestIndependentALUThroughput(t *testing.T) {
	// Independent single-cycle int ops: throughput must be bound by the
	// 4 integer units, and get close to that bound.
	pcs := &loopPC{base: 0x1000, span: 128}
	i := 0
	src := funcSource(func(out *isa.Inst) {
		i++
		*out = isa.Inst{PC: pcs.next(), Class: isa.ClassInt,
			Dest: isa.Reg(1 + i%8), Src1: isa.InvalidReg, Src2: isa.InvalidReg}
	})
	h := newHarness(t, 1, nil, src)
	h.warm(t, 6000)
	h.run(t, 2000)
	committed := h.core.Threads()[0].Committed
	ipc := float64(committed) / 2000
	if ipc > 4.0 {
		t.Fatalf("IPC %.2f exceeds the 4 int units", ipc)
	}
	if ipc < 3.0 {
		t.Fatalf("IPC %.2f too low for independent ALU stream", ipc)
	}
}

func TestDependencyChainSerialises(t *testing.T) {
	// r1 <- r1 chain: one instruction per cycle at best.
	pcs := &loopPC{base: 0x1000, span: 128}
	src := funcSource(func(out *isa.Inst) {
		*out = isa.Inst{PC: pcs.next(), Class: isa.ClassInt, Dest: 1, Src1: 1, Src2: isa.InvalidReg}
	})
	h := newHarness(t, 1, nil, src)
	h.warm(t, 6000)
	h.run(t, 2000)
	ipc := float64(h.core.Threads()[0].Committed) / 2000
	if ipc > 1.05 {
		t.Fatalf("dependent chain IPC %.2f exceeds 1", ipc)
	}
	if ipc < 0.8 {
		t.Fatalf("dependent chain IPC %.2f too low", ipc)
	}
}

func TestLoadHitThroughputBoundByLSUnits(t *testing.T) {
	// Independent loads to one hot line: bounded by the 2 ld/st units.
	pcs := &loopPC{base: 0x1000, span: 128}
	i := 0
	src := funcSource(func(out *isa.Inst) {
		i++
		*out = isa.Inst{PC: pcs.next(), Class: isa.ClassLoad,
			Dest: isa.Reg(1 + i%8), Src1: isa.InvalidReg, Src2: isa.InvalidReg,
			Addr: 0x400000000}
	})
	h := newHarness(t, 1, nil, src)
	h.warm(t, 6000)
	h.run(t, 3000)
	ipc := float64(h.core.Threads()[0].Committed) / 3000
	if ipc > 2.0 {
		t.Fatalf("load IPC %.2f exceeds the 2 ld/st units", ipc)
	}
	if ipc < 1.5 {
		t.Fatalf("load IPC %.2f too low for L1-hitting loads", ipc)
	}
	// After the first miss the line is resident: essentially all hits.
	if h.core.Stats().Get("l1d.load_hits") == 0 {
		t.Fatal("no L1 load hits recorded")
	}
}

func TestWellPredictedBranchesCommit(t *testing.T) {
	// An always-taken loop branch: the perceptron learns it, so
	// throughput stays healthy and mispredicts are rare after warmup.
	pcs := 0
	src := funcSource(func(out *isa.Inst) {
		pcs++
		if pcs%5 == 0 {
			*out = isa.Inst{PC: 0x2000, Class: isa.ClassBranch, Dest: isa.InvalidReg,
				Src1: isa.InvalidReg, Src2: isa.InvalidReg, Taken: true, Target: 0x1000}
			return
		}
		*out = isa.Inst{PC: 0x1000 + uint64(pcs%5)*4, Class: isa.ClassInt,
			Dest: isa.Reg(1 + pcs%8), Src1: isa.InvalidReg, Src2: isa.InvalidReg}
	})
	h := newHarness(t, 1, nil, src)
	h.run(t, 3000)
	st := h.core.Stats()
	if st.Get("branches") == 0 {
		t.Fatal("no branches resolved")
	}
	mispredictRate := float64(st.Get("mispredicts")) / float64(st.Get("branches"))
	if mispredictRate > 0.10 {
		t.Fatalf("mispredict rate %.3f too high for a fixed taken branch", mispredictRate)
	}
	if h.core.Threads()[0].Committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestMispredictsSquashWrongPath(t *testing.T) {
	// A pseudo-random 50/50 branch defeats the predictor; wrong-path
	// work must be squashed, never committed, and progress must
	// continue.
	pcs := 0
	rngState := uint64(0x12345)
	src := funcSource(func(out *isa.Inst) {
		pcs++
		if pcs%4 == 0 {
			rngState ^= rngState << 13
			rngState ^= rngState >> 7
			rngState ^= rngState << 17
			taken := rngState&1 == 1
			*out = isa.Inst{PC: 0x2000 + uint64(pcs%8)*16, Class: isa.ClassBranch,
				Dest: isa.InvalidReg, Src1: isa.InvalidReg, Src2: isa.InvalidReg,
				Taken: taken, Target: 0x2000 + uint64((pcs+1)%8)*16}
			return
		}
		*out = isa.Inst{PC: 0x1000 + uint64(pcs)*4%0x800, Class: isa.ClassInt,
			Dest: isa.Reg(1 + pcs%8), Src1: isa.InvalidReg, Src2: isa.InvalidReg}
	})
	h := newHarness(t, 1, nil, src)
	h.warm(t, 6000)
	h.run(t, 4000)
	st := h.core.Stats()
	if st.Get("mispredicts") == 0 {
		t.Fatal("alternating branch never mispredicted")
	}
	if h.core.Energy().WrongPathTotal() == 0 {
		t.Fatal("mispredicts squashed no wrong-path work")
	}
	if h.core.Threads()[0].Committed == 0 {
		t.Fatal("no forward progress despite mispredicts")
	}
	// FLUSH waste must be zero under ICOUNT: no flush mechanism ran.
	if h.core.Energy().Wasted() != 0 {
		t.Fatalf("ICOUNT accrued FLUSH waste %v", h.core.Energy().Wasted())
	}
}

// missyLoadSource emits loads that miss L2 (cold, distinct lines) each
// followed by dependent consumers — the resource-clogging pattern.
func missyLoadSource(stride int) trace.Source {
	pcs := &loopPC{base: 0x1000, span: 128}
	i := 0
	addr := uint64(0x400000000)
	return funcSource(func(out *isa.Inst) {
		i++
		switch {
		case i%16 == 1:
			addr += uint64(stride)
			*out = isa.Inst{PC: pcs.next(), Class: isa.ClassLoad, Dest: 1,
				Src1: isa.InvalidReg, Src2: isa.InvalidReg, Addr: addr}
		default:
			// Dependent chain on the load result: the classic pattern
			// that parks unissuable work in the shared queues.
			*out = isa.Inst{PC: pcs.next(), Class: isa.ClassInt, Dest: 1, Src1: 1, Src2: isa.InvalidReg}
		}
	})
}

// aluSource emits independent integer work.
func aluSource() trace.Source {
	pcs := &loopPC{base: 0x800000, span: 128}
	i := 0
	return funcSource(func(out *isa.Inst) {
		i++
		*out = isa.Inst{PC: pcs.next(), Class: isa.ClassInt,
			Dest: isa.Reg(1 + i%8), Src1: isa.InvalidReg, Src2: isa.InvalidReg}
	})
}

func TestFlushProtectsCoScheduledThread(t *testing.T) {
	// Thread 0 misses L2 constantly with dependent chains (the clog
	// pattern); thread 1 is pure ILP. FLUSH-S30 must give thread 1
	// clearly more throughput than ICOUNT does.
	run := func(pol *policy.Policy) uint64 {
		h := newHarness(t, 2, pol, missyLoadSource(1<<16), aluSource())
		h.warm(t, 6000)
		h.run(t, 8000)
		return h.core.Threads()[1].Committed // the ILP thread
	}
	cfg := config.Default(1)
	icount := run(policy.NewICOUNT())
	flush := run(policy.NewFlushS(cfg.Core.ThreadsPerCore, 30))
	if flush <= icount {
		t.Fatalf("FLUSH-S30 ILP-thread commits %d <= ICOUNT %d; flush gives no protection",
			flush, icount)
	}
	gain := float64(flush)/float64(icount) - 1
	if gain < 0.10 {
		t.Fatalf("FLUSH protection gain %.2f%% too small", gain*100)
	}
}

func TestFlushAccountsWastedEnergy(t *testing.T) {
	cfg := config.Default(1)
	h := newHarness(t, 2, policy.NewFlushS(cfg.Core.ThreadsPerCore, 30),
		missyLoadSource(1<<16), aluSource())
	h.warm(t, 6000)
	h.run(t, 8000)
	if h.core.Stats().Get("policy.flushes") == 0 {
		t.Fatal("no flushes triggered by the missy thread")
	}
	if h.core.Energy().Wasted() <= 0 {
		t.Fatal("flushes wasted no energy")
	}
	if h.core.Energy().FlushedTotal() == 0 {
		t.Fatal("no flushed instructions recorded")
	}
}

func TestFlushedThreadReplaysAndProgresses(t *testing.T) {
	// Even the flushed thread must keep making forward progress: its
	// squashed instructions are re-fetched after each resolution.
	cfg := config.Default(1)
	h := newHarness(t, 2, policy.NewFlushS(cfg.Core.ThreadsPerCore, 30),
		missyLoadSource(1<<16), aluSource())
	h.warm(t, 6000)
	h.run(t, 12000)
	if got := h.core.Threads()[0].Committed; got == 0 {
		t.Fatal("flushed thread starved completely")
	}
}

func TestStallPolicyStallsWithoutSquashing(t *testing.T) {
	cfg := config.Default(1)
	h := newHarness(t, 2, policy.NewStall(cfg.Core.ThreadsPerCore, 30),
		missyLoadSource(1<<16), aluSource())
	h.warm(t, 6000)
	h.run(t, 8000)
	if h.core.Stats().Get("policy.stall_cycles") == 0 {
		t.Fatal("stall policy never stalled")
	}
	if h.core.Stats().Get("policy.flushes") != 0 {
		t.Fatal("stall policy flushed")
	}
	if h.core.Energy().Wasted() != 0 {
		t.Fatal("stall policy wasted flush energy")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64, string) {
		cfg := config.Default(1)
		h := newHarness(t, 2, policy.NewFlushS(cfg.Core.ThreadsPerCore, 50),
			missyLoadSource(1<<14), aluSource())
		h.run(t, 5000)
		c := h.core.AppendCommitted(nil)
		return c[0], c[1], h.core.Stats().String()
	}
	a0, a1, as := run()
	b0, b1, bs := run()
	if a0 != b0 || a1 != b1 || as != bs {
		t.Fatalf("nondeterministic runs: (%d,%d) vs (%d,%d)\n%s\n%s", a0, a1, b0, b1, as, bs)
	}
}

func TestUOpStageClassification(t *testing.T) {
	u := &UOp{FetchedAt: 100}
	if got := u.StageAt(100, 6); got.String() != "Fetch" {
		t.Fatalf("age 0 = %v", got)
	}
	if got := u.StageAt(103, 6); got.String() != "Decode" {
		t.Fatalf("age 3 = %v", got)
	}
	if got := u.StageAt(105, 6); got.String() != "Rename" {
		t.Fatalf("age 5 = %v", got)
	}
	u.InQueue = true
	if got := u.StageAt(110, 6); got.String() != "Queue" {
		t.Fatalf("queued = %v", got)
	}
	u.Issued = true
	if got := u.StageAt(110, 6); got.String() != "Execute" {
		t.Fatalf("issued = %v", got)
	}
	u.Executed = true
	if got := u.StageAt(110, 6); got.String() != "Reg.Write" {
		t.Fatalf("executed = %v", got)
	}
}

func TestRingBasics(t *testing.T) {
	r := newRing(4)
	u1, u2, u3 := &UOp{Seq: 1}, &UOp{Seq: 2}, &UOp{Seq: 3}
	r.push(u1)
	r.push(u2)
	r.push(u3)
	if r.len() != 3 || r.front() != u1 || r.back() != u3 {
		t.Fatal("ring order broken")
	}
	if r.at(1) != u2 {
		t.Fatal("ring at() broken")
	}
	if got := r.popBack(); got != u3 {
		t.Fatal("popBack wrong")
	}
	if got := r.popFront(); got != u1 {
		t.Fatal("popFront wrong")
	}
	if r.len() != 1 {
		t.Fatal("len wrong after pops")
	}
	r.push(&UOp{Seq: 4})
	r.push(&UOp{Seq: 5})
	r.push(&UOp{Seq: 6})
	if !r.full() {
		t.Fatal("ring should be full")
	}
}

func TestQueueRemoveCompacts(t *testing.T) {
	q := newQueue(4)
	var uops []*UOp
	for i := 0; i < 4; i++ {
		u := &UOp{Seq: uint64(i)}
		uops = append(uops, u)
		q.insert(u)
	}
	if q.hasSpace() {
		t.Fatal("queue should be full")
	}
	q.remove(uops[1])
	q.remove(uops[2])
	if q.len() != 2 {
		t.Fatalf("len = %d", q.len())
	}
	// Age order preserved across removals and reinsertions.
	q.insert(&UOp{Seq: 10})
	var seqs []uint64
	q.scan(func(u *UOp) bool {
		seqs = append(seqs, u.Seq)
		return true
	})
	if len(seqs) != 3 || seqs[0] != 0 || seqs[1] != 3 || seqs[2] != 10 {
		t.Fatalf("scan order %v", seqs)
	}
}
