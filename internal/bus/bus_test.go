package bus

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/resettest"
)

func TestDeliveryAfterDelay(t *testing.T) {
	b := New[int](3, 1)
	b.Push(10, 42)
	for now := uint64(10); now < 13; now++ {
		if got := b.Tick(now); len(got) != 0 {
			t.Fatalf("early delivery at %d: %v", now, got)
		}
	}
	got := b.Tick(13)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("delivery at 13 = %v", got)
	}
}

func TestFIFOOrder(t *testing.T) {
	b := New[int](1, 1)
	b.Push(0, 1)
	b.Push(0, 2)
	b.Push(0, 3)
	var got []int
	for now := uint64(0); now < 10; now++ {
		got = append(got, b.Tick(now)...)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("out-of-order delivery: %v", got)
	}
}

func TestArbitrationThroughputBound(t *testing.T) {
	// With perCycle=2, 10 transfers need 5 grant cycles; the last
	// arrives at grant cycle + delay.
	b := New[int](2, 2)
	for i := 0; i < 10; i++ {
		b.Push(0, i)
	}
	delivered := 0
	var lastCycle uint64
	for now := uint64(0); now < 20; now++ {
		for range b.Tick(now) {
			delivered++
			lastCycle = now
		}
	}
	if delivered != 10 {
		t.Fatalf("delivered %d of 10", delivered)
	}
	// Grants at cycles 0..4, so the last delivery is at 4+2=6.
	if lastCycle != 6 {
		t.Fatalf("last delivery at %d, want 6", lastCycle)
	}
}

func TestQueueWaitAccounting(t *testing.T) {
	b := New[int](1, 1)
	b.Push(0, 1)
	b.Push(0, 2) // waits one cycle for the grant
	for now := uint64(0); now < 5; now++ {
		b.Tick(now)
	}
	n, avg, maxQ := b.Stats()
	if n != 2 {
		t.Fatalf("transfers = %d", n)
	}
	if avg != 0.5 {
		t.Fatalf("avg wait = %v, want 0.5", avg)
	}
	if maxQ != 2 {
		t.Fatalf("max queue = %d, want 2", maxQ)
	}
}

func TestPending(t *testing.T) {
	b := New[int](5, 1)
	b.Push(0, 1)
	b.Push(0, 2)
	if b.Pending() != 2 {
		t.Fatalf("pending = %d", b.Pending())
	}
	b.Tick(0)
	if b.Pending() != 2 { // one queued, one in flight
		t.Fatalf("pending after tick = %d", b.Pending())
	}
	for now := uint64(1); now <= 6; now++ {
		b.Tick(now)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending after drain = %d", b.Pending())
	}
}

func TestNextEvent(t *testing.T) {
	b := New[int](5, 1)
	if got := b.NextEvent(0); got != math.MaxUint64 {
		t.Fatalf("empty bus next event = %d", got)
	}
	b.Push(0, 1)
	b.Push(0, 2)
	if got := b.NextEvent(0); got != 0 {
		t.Fatalf("queued transfer next event = %d, want 0", got)
	}
	b.Tick(0)
	if got := b.NextEvent(1); got != 1 { // the second grant
		t.Fatalf("next event after one grant = %d, want 1", got)
	}
	b.Tick(1)
	if got := b.NextEvent(2); got != 5 { // the first delivery
		t.Fatalf("next event with both in flight = %d, want 5", got)
	}
	for now := uint64(2); now <= 6; now++ {
		b.Tick(now)
	}
	if got := b.NextEvent(7); got != math.MaxUint64 {
		t.Fatalf("drained bus next event = %d", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New[int](0, 1) },
		func() { New[int](1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: every pushed payload is delivered exactly once, in push
	// order, regardless of the push schedule.
	f := func(gaps []uint8) bool {
		b := New[int](2, 1)
		now := uint64(0)
		want := 0
		pushed := 0
		var got []int
		for _, g := range gaps {
			for i := uint8(0); i < g%3; i++ {
				b.Push(now, pushed)
				pushed++
			}
			got = append(got, b.Tick(now)...)
			now++
		}
		for b.Pending() > 0 {
			got = append(got, b.Tick(now)...)
			now++
		}
		if len(got) != pushed {
			return false
		}
		for _, v := range got {
			if v != want {
				return false
			}
			want++
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOCompaction(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 10000; i++ {
		f.Push(i)
		if got := f.Pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if cap(f.buf) > 4096 {
		t.Fatalf("fifo buffer grew unboundedly: cap=%d", cap(f.buf))
	}
}

func BenchmarkBusTick(b *testing.B) {
	bs := New[int](2, 1)
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		if i%3 == 0 {
			bs.Push(now, i)
		}
		bs.Tick(now)
	}
}

// TestResetMatchesNew: a bus that carried traffic, with transfers still
// queued and in flight, equals a new one field for field after Reset.
func TestResetMatchesNew(t *testing.T) {
	b := New[*int](2, 1)
	v := 7
	for now := uint64(0); now < 300; now++ {
		b.Push(now, &v)
		if now%3 != 0 {
			b.Push(now, &v)
		}
		b.Tick(now)
	}
	if b.Pending() == 0 {
		t.Fatal("test wants transfers left in flight")
	}
	b.Reset()
	if d := resettest.Diff(New[*int](2, 1), b); d != "" {
		t.Errorf("reset bus differs from a new one at %s", d)
	}
}
