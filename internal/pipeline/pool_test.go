package pipeline

import (
	"math/bits"
	"testing"
)

// TestUOpPoolGeneration checks the recycling invariants the whole
// rename/wakeup machinery rests on: a freed uop's generation bump kills
// stale references, and reuse hands back a fully reset uop.
func TestUOpPoolGeneration(t *testing.T) {
	c := &Core{threads: []*thread{{}}}

	u := c.allocUOp()
	u.Tid = 0
	u.Seq = 42
	u.Executed = true
	u.waitSrc = 1
	u.deps = append(u.deps, mkRef(&UOp{}), mkRef(&UOp{}))
	depsCap := cap(u.deps)
	ref := mkRef(u)
	if ref.live() != u {
		t.Fatal("fresh reference should be live")
	}
	if !ref.refersTo(u) {
		t.Fatal("refersTo should match the live uop")
	}

	c.freeUOp(u)
	if ref.live() != nil {
		t.Fatal("reference survived recycling")
	}
	if ref.refersTo(u) {
		t.Fatal("refersTo matched a recycled uop")
	}

	// Reuse returns the same object, reset, with the bumped generation.
	u2 := c.allocUOp()
	if u2 != u {
		t.Fatal("free list did not recycle the uop")
	}
	if u2.Seq != 0 || u2.Executed || u2.Tid != 0 || u2.waitSrc != 0 || len(u2.deps) != 0 {
		t.Fatalf("recycled uop not reset: %+v", u2)
	}
	// The emptied wakeup list keeps its backing array for reuse.
	if cap(u2.deps) != depsCap {
		t.Fatalf("recycled wakeup list capacity %d, want %d", cap(u2.deps), depsCap)
	}
	if ref.live() != nil {
		t.Fatal("old reference resurrected by reuse")
	}
	if mkRef(u2).live() != u2 {
		t.Fatal("new reference to the recycled uop should be live")
	}
}

func TestUOpDoubleFreePanics(t *testing.T) {
	c := &Core{threads: []*thread{{}}}
	u := c.allocUOp()
	c.freeUOp(u)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.freeUOp(u)
}

// TestQueueRemoveByIndex covers the O(1) slot-index removal including
// after an insert-time compaction reindexes survivors, and checks that
// the ready bitmap follows every slot through removals and compaction:
// odd-numbered uops wait on a producer, even-numbered ones are ready.
func TestQueueRemoveByIndex(t *testing.T) {
	q := newQueue(4)
	mk := func(seq int) *UOp { return &UOp{Seq: uint64(seq), waitSrc: int32(seq % 2)} }
	checkReady := func(when string) {
		t.Helper()
		if err := q.checkReady(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		want := 0
		q.scan(func(u *UOp) bool {
			if u.waitSrc == 0 {
				want++
			}
			return true
		})
		got := 0
		for _, w := range q.ready {
			got += bits.OnesCount64(w)
		}
		if got != want {
			t.Fatalf("%s: %d ready bits, want %d", when, got, want)
		}
	}
	var uops []*UOp
	for i := 0; i < 4; i++ {
		u := mk(i)
		q.insert(u)
		uops = append(uops, u)
	}
	checkReady("after fill")
	q.remove(uops[1])
	q.remove(uops[2])
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
	checkReady("after removals")
	// Force compaction: keep inserting while removing the oldest live
	// entry, so the slot array grows past 2*cap and gets rebuilt.
	compactions := 0
	for i := 4; i < 12; i++ {
		before := len(q.slots)
		q.insert(mk(i))
		if len(q.slots) <= before {
			compactions++
		}
		checkReady("after insert")
		var oldest *UOp
		q.scan(func(u *UOp) bool { oldest = u; return false })
		q.remove(oldest)
		checkReady("after removing the oldest")
	}
	if compactions == 0 {
		t.Fatal("the insert loop never compacted the queue")
	}
	// A waiting uop woken in place gains its bit at its current slot.
	var waiting *UOp
	q.scan(func(u *UOp) bool {
		if u.waitSrc > 0 {
			waiting = u
		}
		return waiting == nil
	})
	if waiting == nil {
		t.Fatal("no waiting uop left to wake")
	}
	waiting.waitSrc = 0
	q.markReady(waiting)
	checkReady("after wakeup")
	// Every still-resident uop must be removable (indices valid).
	var live []*UOp
	q.scan(func(u *UOp) bool { live = append(live, u); return true })
	for _, u := range live {
		q.remove(u)
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after removing all, want 0", q.len())
	}
	checkReady("after removing all")
}

// TestRingWrapNonPowerOfTwo exercises the branch-based index wrap with a
// capacity that is not a power of two.
func TestRingWrapNonPowerOfTwo(t *testing.T) {
	r := newRing(3)
	seq := uint64(0)
	push := func() {
		seq++
		r.push(&UOp{Seq: seq})
	}
	push()
	push()
	push()
	if got := r.popFront().Seq; got != 1 {
		t.Fatalf("popFront = %d, want 1", got)
	}
	push() // wraps
	if got := r.back().Seq; got != 4 {
		t.Fatalf("back = %d, want 4", got)
	}
	if got := r.popBack().Seq; got != 4 {
		t.Fatalf("popBack = %d, want 4", got)
	}
	if got := r.at(1).Seq; got != 3 {
		t.Fatalf("at(1) = %d, want 3", got)
	}
}
