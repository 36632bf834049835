// Package branch implements the front-end control-flow predictors of the
// simulated core: a perceptron conditional branch predictor (the paper's
// "perceptron (4K local, 256 perceps.)"), a set-associative branch target
// buffer and a return address stack.
package branch

import "repro/internal/isa"

// Perceptron is a global-history perceptron branch predictor (Jiménez &
// Lin, HPCA 2001). A table of perceptrons is indexed by PC; each holds one
// weight per global-history bit plus a bias. The prediction is the sign of
// the dot product between the weights and the history; training adjusts
// weights when the prediction is wrong or the output magnitude is below
// the threshold.
type Perceptron struct {
	weights [][]int16 // [perceptron][history+1], index 0 is the bias
	history uint64
	hlen    int
	thresh  int32
	mask    uint64
}

// weightLimit saturates weights to a signed byte, matching the 8-bit
// weights of hardware proposals.
const weightLimit = 127

// NewPerceptron returns a predictor with the given table size (power of
// two) and global history length.
func NewPerceptron(tableSize, historyLen int) *Perceptron {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		panic("branch: perceptron table size must be a positive power of two")
	}
	if historyLen <= 0 || historyLen > 63 {
		panic("branch: history length must be in [1,63]")
	}
	w := make([][]int16, tableSize)
	for i := range w {
		w[i] = make([]int16, historyLen+1)
	}
	return &Perceptron{
		weights: w,
		hlen:    historyLen,
		// Optimal training threshold from the perceptron paper:
		// 1.93*h + 14.
		thresh: int32(1.93*float64(historyLen) + 14),
		mask:   uint64(tableSize - 1),
	}
}

func (p *Perceptron) index(pc uint64) uint64 {
	// Drop the instruction alignment bits, then fold.
	v := pc >> 2
	return (v ^ (v >> 9)) & p.mask
}

// output computes the perceptron dot product for pc with the current
// history.
func (p *Perceptron) output(pc uint64) int32 {
	w := p.weights[p.index(pc)]
	y := int32(w[0])
	h := p.history
	for i := 1; i <= p.hlen; i++ {
		if h&1 == 1 {
			y += int32(w[i])
		} else {
			y -= int32(w[i])
		}
		h >>= 1
	}
	return y
}

// Predict returns the predicted direction for the branch at pc.
func (p *Perceptron) Predict(pc uint64) bool { return p.output(pc) >= 0 }

// Update trains the predictor with the actual outcome and shifts the
// outcome into the global history. Call it at branch resolution: the
// history holds resolved outcomes only, so a squash of wrong-path
// branches leaves nothing to restore.
func (p *Perceptron) Update(pc uint64, taken bool) {
	y := p.output(pc)
	predicted := y >= 0
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if predicted != taken || mag <= p.thresh {
		w := p.weights[p.index(pc)]
		t := int16(-1)
		if taken {
			t = 1
		}
		w[0] = sat(w[0] + t)
		h := p.history
		for i := 1; i <= p.hlen; i++ {
			if (h&1 == 1) == taken {
				w[i] = sat(w[i] + 1)
			} else {
				w[i] = sat(w[i] - 1)
			}
			h >>= 1
		}
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
}

func sat(v int16) int16 {
	if v > weightLimit {
		return weightLimit
	}
	if v < -weightLimit {
		return -weightLimit
	}
	return v
}

// BTB is a set-associative branch target buffer with LRU replacement.
type BTB struct {
	tags    []uint64
	targets []uint64
	lru     []uint8
	sets    int
	assoc   int
}

// NewBTB returns a BTB with the given total entry count and associativity.
func NewBTB(entries, assoc int) *BTB {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic("branch: BTB entries must divide into ways")
	}
	sets := entries / assoc
	if sets&(sets-1) != 0 {
		panic("branch: BTB set count must be a power of two")
	}
	return &BTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		lru:     make([]uint8, entries),
		sets:    sets,
		assoc:   assoc,
	}
}

func (b *BTB) set(pc uint64) int { return int((pc >> 2) & uint64(b.sets-1)) }

// Lookup returns the predicted target for pc and whether the BTB holds an
// entry for it.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	base := b.set(pc) * b.assoc
	tag := pc >> 2
	for w := 0; w < b.assoc; w++ {
		i := base + w
		if b.tags[i] == tag+1 { // +1 so a zero tag means "empty"
			b.touch(base, w)
			return b.targets[i], true
		}
	}
	return 0, false
}

// Insert records the target for the branch at pc, evicting the LRU way.
func (b *BTB) Insert(pc, target uint64) {
	base := b.set(pc) * b.assoc
	tag := pc>>2 + 1
	victim := 0
	for w := 0; w < b.assoc; w++ {
		i := base + w
		if b.tags[i] == tag {
			b.targets[i] = target
			b.touch(base, w)
			return
		}
		if b.lru[i] > b.lru[base+victim] {
			victim = w
		}
	}
	i := base + victim
	b.tags[i] = tag
	b.targets[i] = target
	b.touch(base, victim)
}

// touch makes way w the most recently used in its set.
func (b *BTB) touch(base, w int) {
	for k := 0; k < b.assoc; k++ {
		if b.lru[base+k] < 255 {
			b.lru[base+k]++
		}
	}
	b.lru[base+w] = 0
}

// RAS is a per-thread return address stack. Pushes past the capacity wrap
// around (overwriting the oldest entry), matching hardware behaviour.
type RAS struct {
	stack []uint64
	top   int // index of next free slot
	depth int // number of live entries, capped at capacity
}

// NewRAS returns a stack with the given capacity.
func NewRAS(capacity int) *RAS {
	if capacity <= 0 {
		panic("branch: RAS capacity must be positive")
	}
	return &RAS{stack: make([]uint64, capacity)}
}

// Push records a return address (call instruction).
func (r *RAS) Push(addr uint64) {
	r.stack[r.top] = addr
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. It returns 0, false when the stack
// is empty.
func (r *RAS) Pop() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return r.stack[r.top], true
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.depth }

// Snapshot captures the stack position for later repair. The buffer
// contents are not copied: a restore after at most capacity intervening
// pushes recovers the stack exactly, which matches hardware top-pointer
// repair.
func (r *RAS) Snapshot() (top, depth int) { return r.top, r.depth }

// Restore rewinds the stack position to a snapshot (used when squashing
// past speculated calls/returns).
func (r *RAS) Restore(top, depth int) {
	r.top = top
	r.depth = depth
}

// Predictor bundles the three structures into the per-core front-end
// predictor. The perceptron and BTB are shared between hardware contexts
// (as in real SMT cores); each context owns a private RAS.
type Predictor struct {
	Cond *Perceptron
	BTB  *BTB
	RAS  []*RAS
}

// New returns a predictor sized by the given parameters with one RAS per
// thread.
func New(perceptrons, history, btbEntries, btbAssoc, rasEntries, threads int) *Predictor {
	ras := make([]*RAS, threads)
	for i := range ras {
		ras[i] = NewRAS(rasEntries)
	}
	return &Predictor{
		Cond: NewPerceptron(perceptrons, history),
		BTB:  NewBTB(btbEntries, btbAssoc),
		RAS:  ras,
	}
}

// Prediction is the front end's verdict for one control instruction.
type Prediction struct {
	// Taken is the predicted direction (always true for calls/returns).
	Taken bool
	// Target is the predicted target; zero when unknown (BTB miss), in
	// which case the front end falls through and later redirects.
	Target uint64
}

// Predict produces a prediction for the control instruction in and
// updates the speculative RAS for thread tid.
func (p *Predictor) Predict(tid int, in *isa.Inst) Prediction {
	switch in.Class {
	case isa.ClassCall:
		p.RAS[tid].Push(in.PC + 4)
		t, ok := p.BTB.Lookup(in.PC)
		if !ok {
			return Prediction{Taken: true}
		}
		return Prediction{Taken: true, Target: t}
	case isa.ClassReturn:
		t, ok := p.RAS[tid].Pop()
		if !ok {
			return Prediction{Taken: true}
		}
		return Prediction{Taken: true, Target: t}
	case isa.ClassBranch:
		taken := p.Cond.Predict(in.PC)
		if !taken {
			return Prediction{Taken: false}
		}
		t, ok := p.BTB.Lookup(in.PC)
		if !ok {
			// Predicted taken with no target: treat as a front-end
			// redirect stall; the caller models this as a mispredict
			// of minimal cost.
			return Prediction{Taken: true}
		}
		return Prediction{Taken: true, Target: t}
	default:
		return Prediction{}
	}
}

// Resolve trains the predictor with the actual outcome of a control
// instruction.
func (p *Predictor) Resolve(in *isa.Inst) {
	if in.Class == isa.ClassBranch {
		p.Cond.Update(in.PC, in.Taken)
	}
	if in.Taken && in.Target != 0 && in.Class != isa.ClassReturn {
		p.BTB.Insert(in.PC, in.Target)
	}
}
