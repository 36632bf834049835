// Package bus models the shared on-chip interconnect between the per-core
// L1 caches and the shared L2 cache banks.
//
// The bus is a split-transaction FIFO-arbitrated channel: each cycle it can
// grant a bounded number of transfers; granted transfers arrive at the far
// side after a fixed transit delay. Requests that cannot be granted queue,
// which is one of the two sources of the L2 hit-latency variability the
// paper analyses (the other being L2 bank port conflicts).
package bus

import "math"

// Bus is a one-direction channel carrying payloads of type T. Use two
// instances for a request/response pair. The zero value is not usable;
// construct with New.
type Bus[T any] struct {
	delay    int
	perCycle int
	queue    FIFO[item[T]]
	inFlight FIFO[item[T]]
	// out is the delivery buffer reused across Ticks.
	out []T

	transfers uint64
	waitSum   uint64
	maxQueue  int
}

type item[T any] struct {
	payload  T
	enqueued uint64
	deliver  uint64
}

// New returns a bus with the given transit delay in cycles and the maximum
// number of transfers granted per cycle.
func New[T any](delay, perCycle int) *Bus[T] {
	if delay < 1 || perCycle < 1 {
		panic("bus: delay and perCycle must be positive")
	}
	return &Bus[T]{delay: delay, perCycle: perCycle}
}

// Push enqueues a transfer at cycle now. It never fails: the queue is
// unbounded, with back-pressure expressed through delivery latency (the
// requesters' MSHRs bound the number of outstanding requests in practice).
func (b *Bus[T]) Push(now uint64, payload T) {
	b.queue.Push(item[T]{payload: payload, enqueued: now})
	if n := b.queue.Len(); n > b.maxQueue {
		b.maxQueue = n
	}
}

// Tick advances the bus to cycle now: it grants up to perCycle queued
// transfers and returns every payload whose transit completes at now.
// Call exactly once per cycle with a monotonically increasing now. The
// returned slice is reused by the next Tick: consume it before then.
func (b *Bus[T]) Tick(now uint64) []T {
	for granted := 0; granted < b.perCycle && b.queue.Len() > 0; granted++ {
		it := b.queue.Pop()
		it.deliver = now + uint64(b.delay)
		b.waitSum += now - it.enqueued
		b.transfers++
		b.inFlight.Push(it)
	}
	out := b.out[:0]
	for b.inFlight.Len() > 0 && b.inFlight.Peek().deliver <= now {
		out = append(out, b.inFlight.Pop().payload)
	}
	b.out = out
	return out
}

// NextEvent returns the earliest cycle at or after now at which Tick would
// grant or deliver a transfer, or math.MaxUint64 when the bus is empty.
func (b *Bus[T]) NextEvent(now uint64) uint64 {
	switch {
	case b.queue.Len() > 0:
		return now
	case b.inFlight.Len() > 0:
		return max(b.inFlight.Peek().deliver, now)
	}
	return math.MaxUint64
}

// Reset empties the bus and zeroes its statistics, keeping the storage of
// its queues and delivery buffer: the bus then behaves exactly as a new
// one with the same delay and width.
func (b *Bus[T]) Reset() {
	b.queue.Reset()
	b.inFlight.Reset()
	clear(b.out[:cap(b.out)])
	*b = Bus[T]{delay: b.delay, perCycle: b.perCycle,
		queue: b.queue, inFlight: b.inFlight, out: b.out[:0]}
}

// Pending returns the number of transfers queued or in flight.
func (b *Bus[T]) Pending() int { return b.queue.Len() + b.inFlight.Len() }

// Stats returns the number of granted transfers, the average grant queue
// wait in cycles, and the maximum queue depth observed.
func (b *Bus[T]) Stats() (transfers uint64, avgWait float64, maxQueue int) {
	if b.transfers == 0 {
		return 0, 0, b.maxQueue
	}
	return b.transfers, float64(b.waitSum) / float64(b.transfers), b.maxQueue
}

// FIFO is a slice-backed queue with amortised O(1) operations. The zero
// value is an empty queue. It stores values unboxed, so the bus and the
// L2 system's bank and memory queues share it on the hot path.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued values.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) { f.buf = append(f.buf, v) }

// Peek returns the head value without removing it; the queue must not be
// empty.
func (f *FIFO[T]) Peek() T { return f.buf[f.head] }

// Pop removes and returns the head value; the queue must not be empty.
func (f *FIFO[T]) Pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	// Compact once the dead prefix dominates, to bound memory.
	if f.head > 64 && f.head*2 > len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// Reset empties the queue, keeping its storage. Compaction leaves copies
// past the length, so the whole capacity is cleared.
func (f *FIFO[T]) Reset() {
	clear(f.buf[:cap(f.buf)])
	f.buf, f.head = f.buf[:0], 0
}
