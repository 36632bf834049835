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
	queue    fifo[item[T]]
	inFlight fifo[item[T]]
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
	b.queue.push(item[T]{payload: payload, enqueued: now})
	if n := b.queue.len(); n > b.maxQueue {
		b.maxQueue = n
	}
}

// Tick advances the bus to cycle now: it grants up to perCycle queued
// transfers and returns every payload whose transit completes at now.
// Call exactly once per cycle with a monotonically increasing now. The
// returned slice is reused by the next Tick: consume it before then.
func (b *Bus[T]) Tick(now uint64) []T {
	for granted := 0; granted < b.perCycle && b.queue.len() > 0; granted++ {
		it := b.queue.pop()
		it.deliver = now + uint64(b.delay)
		b.waitSum += now - it.enqueued
		b.transfers++
		b.inFlight.push(it)
	}
	out := b.out[:0]
	for b.inFlight.len() > 0 && b.inFlight.peek().deliver <= now {
		out = append(out, b.inFlight.pop().payload)
	}
	b.out = out
	return out
}

// NextEvent returns the earliest cycle at or after now at which Tick would
// grant or deliver a transfer, or math.MaxUint64 when the bus is empty.
func (b *Bus[T]) NextEvent(now uint64) uint64 {
	switch {
	case b.queue.len() > 0:
		return now
	case b.inFlight.len() > 0:
		return max(b.inFlight.peek().deliver, now)
	}
	return math.MaxUint64
}

// Pending returns the number of transfers queued or in flight.
func (b *Bus[T]) Pending() int { return b.queue.len() + b.inFlight.len() }

// Stats returns the number of granted transfers, the average grant queue
// wait in cycles, and the maximum queue depth observed.
func (b *Bus[T]) Stats() (transfers uint64, avgWait float64, maxQueue int) {
	if b.transfers == 0 {
		return 0, 0, b.maxQueue
	}
	return b.transfers, float64(b.waitSum) / float64(b.transfers), b.maxQueue
}

// fifo is a slice-backed queue with amortised O(1) operations.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

func (f *fifo[T]) peek() T { return f.buf[f.head] }

func (f *fifo[T]) pop() T {
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
