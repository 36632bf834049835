package pipeline

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/trace"
)

// randomSource generates a pseudo-random but deterministic instruction
// stream with realistic structure: looping code, mixed classes, branches
// with stored outcomes, loads over a bounded working set.
type randomSource struct {
	r     *rng.Rand
	pc    uint64
	base  uint64
	i     int
	taken map[uint64]bool
}

func newRandomSource(seed uint64, base uint64) *randomSource {
	return &randomSource{r: rng.New(seed), pc: 0x10000, base: base, taken: map[uint64]bool{}}
}

func (s *randomSource) Next(out *isa.Inst) {
	s.i++
	out.PC = s.pc
	out.Taken = false
	out.Target = 0
	out.Addr = 0
	out.Dest = isa.Reg(1 + s.r.Intn(62))
	out.Src1 = isa.Reg(1 + s.r.Intn(62))
	out.Src2 = isa.InvalidReg
	switch v := s.r.Intn(100); {
	case v < 25:
		out.Class = isa.ClassLoad
		out.Addr = s.base + uint64(s.r.Intn(1<<16))
	case v < 35:
		out.Class = isa.ClassStore
		out.Dest = isa.InvalidReg
		out.Addr = s.base + uint64(s.r.Intn(1<<16))
	case v < 50:
		out.Class = isa.ClassFP
	case v < 60:
		out.Class = isa.ClassBranch
		out.Dest = isa.InvalidReg
		// Per-site sticky-random outcomes defeat the predictor often
		// enough to exercise squash paths hard.
		if s.r.Bool(0.3) {
			s.taken[s.pc] = !s.taken[s.pc]
		}
		out.Taken = s.taken[s.pc]
		if out.Taken {
			out.Target = 0x10000 + uint64(s.r.Intn(256))*4
		}
	default:
		out.Class = isa.ClassInt
	}
	if out.Taken {
		s.pc = out.Target
	} else {
		s.pc += 4
		if s.pc > 0x10000+1024*4 {
			s.pc = 0x10000
		}
	}
}

// TestPropertyInvariantsUnderRandomStreams hammers the core with random
// streams under every policy and validates resource conservation plus
// basic sanity after every burst.
func TestPropertyInvariantsUnderRandomStreams(t *testing.T) {
	cfg := config.Default(1)
	f := func(seed uint16, polPick uint8) bool {
		var pol *policy.Policy
		switch polPick % 4 {
		case 0:
			pol = policy.NewICOUNT()
		case 1:
			pol = policy.NewFlushS(cfg.Core.ThreadsPerCore, 20+int(seed%80))
		case 2:
			pol = policy.NewFlushNS(cfg.Core.ThreadsPerCore)
		default:
			pol = policy.NewStall(cfg.Core.ThreadsPerCore, 20+int(seed%80))
		}
		h := newHarness(t, 2,
			pol,
			newRandomSource(uint64(seed)+1, 1<<34),
			newRandomSource(uint64(seed)+2, 2<<34))
		for burst := 0; burst < 4; burst++ {
			h.run(t, 2500)
			if err := h.core.CheckInvariants(); err != nil {
				t.Logf("seed %d policy %T (pick %d): %v", seed, pol, polPick%4, err)
				return false
			}
		}
		// Fetched >= committed per thread, and the machine moved.
		total := uint64(0)
		for _, ti := range h.core.Threads() {
			if ti.Committed > ti.Fetched {
				return false
			}
			total += ti.Committed
		}
		return total > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyICountNonNegative verifies the in-flight counter bookkeeping
// never underflows across heavy squash activity.
func TestPropertyICountNonNegative(t *testing.T) {
	cfg := config.Default(1)
	h := newHarness(t, 2,
		policy.NewFlushS(cfg.Core.ThreadsPerCore, 25),
		newRandomSource(77, 1<<34),
		newRandomSource(78, 2<<34))
	for burst := 0; burst < 20; burst++ {
		h.run(t, 500)
		for i, ti := range h.core.Threads() {
			if ti.ICount < 0 {
				t.Fatalf("thread %d icount underflowed: %d", i, ti.ICount)
			}
		}
	}
}

// stampSource wraps a branch-free source and stamps each instruction's
// stream index into Target, so every uop names the instruction of the
// stream it carries.
func stampSource(src trace.Source) trace.Source {
	var n uint64
	return funcSource(func(out *isa.Inst) {
		src.Next(out)
		out.Target = n
		n++
	})
}

// TestPropertyReplayPreservesProgramOrder: across flushes and refetches a
// thread holds exactly its source's instructions, in program order. The
// sources are branch-free, so there is no wrong path, and they stamp each
// instruction's stream index: after every burst, each thread's ROB and
// front-end queue must hold consecutive indices starting at its committed
// count.
func TestPropertyReplayPreservesProgramOrder(t *testing.T) {
	cfg := config.Default(1)
	h := newHarness(t, 2, policy.NewFlushS(cfg.Core.ThreadsPerCore, 30),
		stampSource(missyLoadSource(1<<16)), stampSource(aluSource()))
	for burst := 0; burst < 10; burst++ {
		h.run(t, 2000)
		for tid, th := range h.core.threads {
			next := th.committed
			for _, r := range []*ring{th.rob, th.frontQ} {
				for i := 0; i < r.len(); i++ {
					if got := r.at(i).Inst.Target; got != next {
						t.Fatalf("burst %d: thread %d holds instruction %d where %d is next in program order",
							burst, tid, got, next)
					}
					next++
				}
			}
		}
	}
	if h.core.Stats().Get("policy.flushes") == 0 {
		t.Fatal("FLUSH never engaged")
	}
	if h.core.Threads()[0].Committed == 0 {
		t.Fatal("flushed thread never committed")
	}
}

var _ trace.Source = (*randomSource)(nil)
