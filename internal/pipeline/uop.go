// Package pipeline implements one out-of-order SMT core: an 11-stage
// fetch/decode/rename/queue/issue/execute/writeback/commit pipeline with
// shared issue queues and physical registers, per-thread reorder buffers,
// wrong-path execution, and the flush machinery the IFetch policies drive.
package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/policy"
)

// UOp is one in-flight dynamic instruction. UOps are recycled through a
// per-core free list: Gen is bumped every time a uop is released, so a
// uopRef captured while it was live can detect that it now names a
// different (or pooled) instruction.
type UOp struct {
	Inst isa.Inst
	// Tid is the core-local hardware context.
	Tid int
	// Seq is the per-thread fetch order; squashes are "younger than".
	Seq uint64
	// Gen is the recycling generation; see uopRef.
	Gen uint32
	// WrongPath marks instructions fetched past an unresolved
	// mispredicted branch: they execute but never commit.
	WrongPath bool

	// FetchedAt stamps fetch; the front-end pipe delivers the
	// instruction to rename FrontEndStages cycles later.
	FetchedAt uint64

	// waitSrc counts the source producers that had not executed when the
	// uop was renamed and have not executed since; the uop may issue only
	// at zero. deps lists the consumers renamed against this uop while it
	// was unexecuted, for markExecuted to wake. Its backing array survives
	// recycling, so wakeup allocates nothing in steady state.
	waitSrc int32
	deps    []uopRef
	// PrevProd restores the rename table if this uop is squashed.
	PrevProd uopRef

	// Resource ownership flags (see core.go squash/commit for the
	// conservation rules).
	HasPReg bool
	InQueue bool
	// InWheel marks residence in the execution-completion wheel; a
	// squashed uop still in the wheel is recycled at writeback, not at
	// squash time.
	InWheel bool
	// pooled marks membership in the free list (double-free guard).
	pooled bool
	// qIdx is the uop's slot in its issue queue while InQueue.
	qIdx int32

	Issued   bool
	Executed bool
	Squashed bool

	// Control-flow state.
	MispredictedBranch bool // resolution must squash and redirect
	RASTop, RASDepth   int  // RAS repair snapshot (control uops)

	// Memory state.
	TLBDone    bool
	TLBMissed  bool
	RetryAt    uint64
	WaitingMem bool
	// Load is the policy-visible descriptor, present only for
	// correct-path loads that missed the L1 data cache.
	Load *policy.LoadInfo
}

// uopRef is a generation-validated reference to a uop. The pipeline frees
// uops at commit or squash while rename-table entries and wakeup lists
// may still name them; the generation check turns such stale references
// into nil. A stale producer reads as "architectural", exactly as a
// committed (always Executed) producer did before recycling, and a stale
// consumer was squashed and needs no wakeup.
type uopRef struct {
	u   *UOp
	gen uint32
}

// mkRef captures a reference to a live uop.
func mkRef(u *UOp) uopRef { return uopRef{u: u, gen: u.Gen} }

// live returns the referenced uop if it has not been recycled since the
// reference was taken, else nil.
func (r uopRef) live() *UOp {
	if r.u != nil && r.u.Gen == r.gen {
		return r.u
	}
	return nil
}

// refersTo reports whether r still references the live uop u.
func (r uopRef) refersTo(u *UOp) bool { return r.u == u && r.gen == u.Gen }

// StageAt classifies the uop's pipeline position for energy accounting.
// frontStages is the configured front-end depth.
func (u *UOp) StageAt(now uint64, frontStages int) energy.Stage {
	switch {
	case u.Executed:
		return energy.StageRegWrite
	case u.Issued || u.WaitingMem:
		return energy.StageExecute
	case u.InQueue:
		return energy.StageQueue
	default:
		// In the front-end pipe: apportion fetch/decode/rename by age.
		age := int(now - u.FetchedAt)
		third := frontStages / 3
		if third < 1 {
			third = 1
		}
		switch {
		case age < third:
			return energy.StageFetch
		case age < 2*third:
			return energy.StageDecode
		default:
			return energy.StageRename
		}
	}
}

// ring is a fixed-capacity FIFO of uops supporting tail truncation, used
// for the per-thread ROB and front-end queue.
type ring struct {
	buf  []*UOp
	head int
	size int
}

func newRing(capacity int) *ring {
	if capacity <= 0 {
		panic("pipeline: ring capacity must be positive")
	}
	return &ring{buf: make([]*UOp, capacity)}
}

// reset empties the ring.
func (r *ring) reset() {
	clear(r.buf)
	r.head, r.size = 0, 0
}

func (r *ring) len() int   { return r.size }
func (r *ring) full() bool { return r.size == len(r.buf) }

// wrap folds an index in [0, 2*n) back into [0, n): the ring and the
// window are hot enough that an integer divide per access is measurable,
// and all callers produce offsets below twice the capacity.
//
//mflush:hotpath
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

func (r *ring) push(u *UOp) {
	if r.full() {
		panic("pipeline: ring overflow")
	}
	r.buf[wrap(r.head+r.size, len(r.buf))] = u
	r.size++
}

func (r *ring) front() *UOp {
	if r.size == 0 {
		return nil
	}
	return r.buf[r.head]
}

func (r *ring) popFront() *UOp {
	u := r.front()
	if u == nil {
		panic("pipeline: pop from empty ring")
	}
	r.buf[r.head] = nil
	r.head = wrap(r.head+1, len(r.buf))
	r.size--
	return u
}

func (r *ring) back() *UOp {
	if r.size == 0 {
		return nil
	}
	return r.buf[wrap(r.head+r.size-1, len(r.buf))]
}

func (r *ring) popBack() *UOp {
	u := r.back()
	if u == nil {
		panic("pipeline: pop from empty ring")
	}
	r.buf[wrap(r.head+r.size-1, len(r.buf))] = nil
	r.size--
	return u
}

// at returns the i-th oldest entry.
func (r *ring) at(i int) *UOp {
	if i < 0 || i >= r.size {
		panic("pipeline: ring index out of range")
	}
	return r.buf[wrap(r.head+i, len(r.buf))]
}

// window is a thread's correct-path instruction supply, in program order:
// from the oldest uncommitted instruction, at slot head, to the newest
// drawn from the source. cursor and tail count from head. Fetch reads at
// cursor, so cursor is also the number of correct-path uops in flight,
// and the source is drawn from only when cursor reaches tail. A FLUSH
// moves cursor back over the instructions it squashed, which are then
// fetched again from where they are, and commit advances head.
// Wrong-path instructions are synthesised into wp and never enter the
// window. The capacity is one more than a thread's ROB plus front-end
// queue, for the instruction drawn ahead of fetch.
type window struct {
	buf          []isa.Inst
	head         int
	cursor, tail int
	fresh        bool // the instruction at tail-1 is drawn but never fetched
	wp           isa.Inst
}

// at returns the instruction i places after head.
//
//mflush:hotpath
func (w *window) at(i int) *isa.Inst { return &w.buf[wrap(w.head+i, len(w.buf))] }

// draw claims the slot at tail for the next instruction of the source.
//
//mflush:hotpath
func (w *window) draw() *isa.Inst {
	if w.tail == len(w.buf) {
		panic("pipeline: instruction window overflow")
	}
	w.tail++
	w.fresh = true
	return w.at(w.tail - 1)
}

// retire drops the oldest instruction at its commit.
//
//mflush:hotpath
func (w *window) retire() {
	w.head = wrap(w.head+1, len(w.buf))
	w.cursor--
	w.tail--
}

// queue is a shared issue queue: a bounded collection preserving age
// order, with O(1) free-slot tracking and mid-queue removal by nil-ing.
// ready is a bitmap over the slots: bit i is set iff slots[i] holds a uop
// that waits on no producer (waitSrc == 0), so the issue stage visits
// only issuable candidates, oldest first, instead of polling every
// waiting uop every cycle. Insert-time compaction keeps len(slots) at
// most 2*cap, so neither array ever grows.
type queue struct {
	slots []*UOp
	ready []uint64
	count int
	cap   int
}

func newQueue(capacity int) *queue {
	n := 2*capacity + 8
	return &queue{
		slots: make([]*UOp, 0, n),
		ready: make([]uint64, (n+63)/64),
		cap:   capacity,
	}
}

// reset empties the queue, keeping its arrays.
func (q *queue) reset() {
	clear(q.slots[:cap(q.slots)])
	clear(q.ready)
	q.slots, q.count = q.slots[:0], 0
}

func (q *queue) hasSpace() bool { return q.count < q.cap }
func (q *queue) len() int       { return q.count }

func (q *queue) insert(u *UOp) {
	if !q.hasSpace() {
		panic("pipeline: issue queue overflow")
	}
	// Compact at insert time only: remove() runs inside the issue walk,
	// and compacting there would corrupt the live iteration.
	if len(q.slots) >= 2*q.cap && q.count*2 <= len(q.slots) {
		clear(q.ready)
		live := q.slots[:0]
		for _, s := range q.slots {
			if s != nil {
				s.qIdx = int32(len(live))
				live = append(live, s)
				if s.waitSrc == 0 {
					q.markReady(s)
				}
			}
		}
		q.slots = live
	}
	u.qIdx = int32(len(q.slots))
	q.slots = append(q.slots, u)
	q.count++
	u.InQueue = true
	if u.waitSrc == 0 {
		q.markReady(u)
	}
}

// markReady sets the ready bit of a queued uop that waits on no producer.
func (q *queue) markReady(u *UOp) {
	i := uint(u.qIdx)
	q.ready[i>>6] |= 1 << (i & 63)
}

// isReady reports slot i's ready bit.
func (q *queue) isReady(i int) bool { return q.ready[i>>6]&(1<<(uint(i)&63)) != 0 }

// remove drops u from the queue (issue or squash) in O(1) via the slot
// index recorded at insert.
func (q *queue) remove(u *UOp) {
	i := int(u.qIdx)
	if !u.InQueue || i < 0 || i >= len(q.slots) || q.slots[i] != u {
		panic("pipeline: removing uop not in queue")
	}
	q.slots[i] = nil
	q.ready[i>>6] &^= 1 << (uint(i) & 63)
	q.count--
	u.InQueue = false
}

// checkReady verifies the ready bitmap against the slots: no bit is set
// on an empty or out-of-range slot, and every queued uop's bit is set
// exactly when it waits on no producer.
func (q *queue) checkReady() error {
	for w, word := range q.ready {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if i >= len(q.slots) || q.slots[i] == nil {
				return fmt.Errorf("pipeline: ready bit set on empty issue-queue slot %d", i)
			}
		}
	}
	for i, u := range q.slots {
		if u != nil && q.isReady(i) != (u.waitSrc == 0) {
			return fmt.Errorf("pipeline: issue-queue slot %d ready bit %v, but its uop waits on %d producers",
				i, q.isReady(i), u.waitSrc)
		}
	}
	return nil
}

// nextRetry returns the earliest of next and the retry cycles of q's ready
// uops, if q has execution units to issue them on.
func (q *queue) nextRetry(next uint64, units int) uint64 {
	if units == 0 {
		return next
	}
	for w, word := range q.ready {
		for ; word != 0; word &= word - 1 {
			next = min(next, q.slots[w<<6|bits.TrailingZeros64(word)].RetryAt)
		}
	}
	return next
}

// scan calls f on each entry in age order until f returns false.
func (q *queue) scan(f func(u *UOp) bool) {
	for _, s := range q.slots {
		if s == nil {
			continue
		}
		if !f(s) {
			return
		}
	}
}
