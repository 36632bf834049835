package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// legacySupply is the instruction supply the window replaced, kept as the
// reference FuzzWindow holds the window to: the instruction peeked from
// the source, a replay buffer a flush fills with the squashed
// instructions (copied out youngest-first, then reversed), and the wrong
// path synthesised into pending. The last overwrites a drawn instruction
// fetch has not reached yet: the known bug of ROADMAP item 2, which the
// window reproduces in one statement.
type legacySupply struct {
	src trace.Source
	bb  *trace.BBDict

	pending     isa.Inst
	hasPending  bool
	replay      []isa.Inst
	replayHead  int
	replaySpare []isa.Inst

	wrongPath bool
	wpPC      uint64
	// inFlight holds the fetched correct-path instructions, oldest first,
	// as their uops carry them.
	inFlight []isa.Inst
}

func (l *legacySupply) peek() *isa.Inst {
	if l.wrongPath {
		l.bb.InstAt(l.wpPC, &l.pending)
		return &l.pending
	}
	if l.replayHead < len(l.replay) {
		return &l.replay[l.replayHead]
	}
	if !l.hasPending {
		l.src.Next(&l.pending)
		l.hasPending = true
	}
	return &l.pending
}

func (l *legacySupply) consume() {
	if l.wrongPath {
		l.wpPC += 4
		return
	}
	l.inFlight = append(l.inFlight, *l.peek())
	if l.replayHead < len(l.replay) {
		l.replayHead++
		if l.replayHead == len(l.replay) {
			l.replay = l.replay[:0]
			l.replayHead = 0
		}
		return
	}
	l.hasPending = false
}

// flush squashes the k youngest fetched correct-path instructions into
// the front of the replay buffer.
func (l *legacySupply) flush(k int) {
	var tmp []isa.Inst
	for i := len(l.inFlight) - 1; i >= len(l.inFlight)-k; i-- {
		tmp = append(tmp, l.inFlight[i])
	}
	l.inFlight = l.inFlight[:len(l.inFlight)-k]
	rem := l.replay[l.replayHead:]
	buf := l.replaySpare[:0]
	for i := len(tmp) - 1; i >= 0; i-- {
		buf = append(buf, tmp[i])
	}
	buf = append(buf, rem...)
	l.replaySpare = l.replay[:0]
	l.replay = buf
	l.replayHead = 0
}

// countSource emits a stream whose every instruction differs from every
// other in all its fields.
type countSource struct{ n uint64 }

func (s *countSource) Next(out *isa.Inst) {
	s.n++
	*out = isa.Inst{
		PC: 0x10000 + 4*s.n, Class: isa.Class(s.n % uint64(isa.NumClasses)),
		Dest: isa.Reg(1 + s.n%62), Src1: isa.Reg(1 + s.n%61), Src2: isa.InvalidReg,
		Addr: s.n << 6, Taken: s.n%2 == 0, MissLatency: uint32(s.n), Target: s.n,
	}
}

// FuzzWindow drives a thread's instruction window and the legacy
// three-buffer supply through the same sequence of fetches, peeks that
// stop short of fetching (an icache miss), flushes, commits and wrong-path
// episodes, and requires every peek to return the same instruction from
// both. The window is small, so it wraps often.
func FuzzWindow(f *testing.F) {
	// A flush over a drawn-but-unfetched instruction, a refetched branch
	// that mispredicts, and the wrong path overwriting the drawn one: the
	// sequence behind the known bug.
	f.Add([]byte{0, 0, 0, 1, 2 + 6*2, 0, 4, 0, 5, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 4, 0, 0, 1, 3, 6, 5, 0, 2, 8, 0, 3, 0, 10, 1, 0, 4, 0, 11, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const rob, frontQ = 8, 4
		bb := func() *trace.BBDict { return trace.NewBBDict(1<<30, 1<<13) }
		th := &thread{src: &countSource{}, bb: bb(), win: window{buf: make([]isa.Inst, rob+frontQ+1)}}
		leg := &legacySupply{src: &countSource{}, bb: bb()}
		peek := func(step int) {
			a, b := th.peekInst(), leg.peek()
			if *a != *b {
				t.Fatalf("step %d: window peeks %+v, legacy supply %+v", step, *a, *b)
			}
		}
		for step, op := range ops {
			inFlight := len(leg.inFlight)
			switch arg := int(op / 6); op % 6 {
			case 0, 1: // fetch, or peek and stop; only with front-end room
				if inFlight >= rob+frontQ {
					continue
				}
				peek(step)
				if op%6 == 0 {
					th.consumeInst()
					leg.consume()
				}
			case 2: // flush: squash the k youngest correct-path instructions
				k := arg % (inFlight + 1)
				if leg.wrongPath {
					// The mispredicted branch is the youngest correct-path
					// instruction, so the flush squashes it too and leaves
					// the wrong path.
					if inFlight == 0 {
						continue
					}
					k = 1 + arg%inFlight
					th.wrongPath, leg.wrongPath = false, false
				}
				th.win.cursor -= k
				leg.flush(k)
			case 3: // commit the oldest; a mispredicted branch resolves first
				if inFlight == 0 || (leg.wrongPath && inFlight == 1) {
					continue
				}
				th.win.retire()
				leg.inFlight = leg.inFlight[1:]
			case 4: // a fetched branch mispredicts
				if leg.wrongPath || inFlight == 0 {
					continue
				}
				pc := 0x800000 + 4*uint64(arg)
				th.wrongPath, leg.wrongPath = true, true
				th.wpPC, leg.wpPC = pc, pc
			case 5: // the mispredicted branch resolves
				th.wrongPath, leg.wrongPath = false, false
			}
			if th.win.cursor != len(leg.inFlight) {
				t.Fatalf("step %d: window has %d instructions in flight, legacy supply %d",
					step, th.win.cursor, len(leg.inFlight))
			}
		}
	})
}
