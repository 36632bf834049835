package mem

import (
	"testing"

	"repro/internal/config"
)

// minHitLatency is the no-contention request latency through the system
// measured from submission: bus + bank + bus.
func minHitLatency(cfg config.Config) uint64 {
	return uint64(2*cfg.Mem.BusDelay + cfg.Mem.L2.Latency)
}

// run drives the system until the given request completes or the cycle
// budget runs out, returning the completion cycle.
func run(t *testing.T, s *L2System, want *Request, budget uint64) uint64 {
	t.Helper()
	for now := want.EnteredL2At; now < want.EnteredL2At+budget; now++ {
		for _, r := range s.Tick(now) {
			if r == want {
				return now
			}
		}
	}
	t.Fatalf("request %#x did not complete within %d cycles", want.Addr, budget)
	return 0
}

func TestUncontendedMissThenHitLatency(t *testing.T) {
	cfg := config.Default(1)
	s := NewL2System(cfg)

	// First access: L2 miss -> memory -> fill.
	r1 := &Request{Addr: 0x1000, IssuedAt: 0}
	s.Submit(r1, 0)
	done := run(t, s, r1, 1000)
	if r1.L2Hit {
		t.Fatal("cold access should miss in L2")
	}
	// bus(2) + bank(15) + mem(250) + fill(4) + bus(2) = 273.
	wantMiss := uint64(2*cfg.Mem.BusDelay + cfg.Mem.L2.Latency +
		cfg.Mem.L2FillOccupancy + cfg.Mem.MainMemoryLatency)
	if done != wantMiss {
		t.Fatalf("miss latency %d, want %d", done, wantMiss)
	}

	// Second access to the same line: L2 hit at minimum latency.
	r2 := &Request{Addr: 0x1000, IssuedAt: done}
	s.Submit(r2, done)
	done2 := run(t, s, r2, 1000)
	if !r2.L2Hit {
		t.Fatal("warm access should hit in L2")
	}
	if got, want := done2-done, minHitLatency(cfg); got != want {
		t.Fatalf("hit latency %d, want %d", got, want)
	}
}

func TestBankConflictSerialises(t *testing.T) {
	cfg := config.Default(1)
	s := NewL2System(cfg)
	// Warm two lines in the same bank (bank of addr is line & 3).
	lineBytes := uint64(cfg.Mem.L2.LineBytes)
	bankStride := lineBytes * uint64(cfg.Mem.L2.Banks)
	a, b := uint64(0), bankStride // same bank, different sets/lines
	if s.BankOf(a) != s.BankOf(b) {
		t.Fatal("test addresses must share a bank")
	}
	for _, addr := range []uint64{a, b} {
		r := &Request{Addr: addr}
		s.Submit(r, 0)
		run(t, s, r, 1000)
	}

	// Reset measurement epoch: submit both hits in the same cycle.
	start := uint64(5000)
	r1 := &Request{Addr: a, IssuedAt: start}
	r2 := &Request{Addr: b, IssuedAt: start}
	s.Submit(r1, start)
	s.Submit(r2, start)
	var c1, c2 uint64
	for now := start; now < start+500; now++ {
		for _, r := range s.Tick(now) {
			switch r {
			case r1:
				c1 = now
			case r2:
				c2 = now
			}
		}
	}
	if c1 == 0 || c2 == 0 {
		t.Fatal("requests did not complete")
	}
	// The second is delayed by at least one bank service time relative
	// to the first (the paper's "two consecutive accesses to the same
	// bank cannot be served in less than 15 cycles").
	gap := int64(c2) - int64(c1)
	if gap < 0 {
		gap = -gap
	}
	if gap < int64(cfg.Mem.L2.Latency) {
		t.Fatalf("same-bank hits separated by %d cycles, want >= %d", gap, cfg.Mem.L2.Latency)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	cfg := config.Default(1)
	s := NewL2System(cfg)
	lineBytes := uint64(cfg.Mem.L2.LineBytes)
	a, b := uint64(0), lineBytes // adjacent lines -> different banks
	if s.BankOf(a) == s.BankOf(b) {
		t.Fatal("adjacent lines should map to different banks")
	}
	for _, addr := range []uint64{a, b} {
		r := &Request{Addr: addr}
		s.Submit(r, 0)
		run(t, s, r, 1000)
	}
	start := uint64(5000)
	r1 := &Request{Addr: a, IssuedAt: start}
	r2 := &Request{Addr: b, IssuedAt: start}
	s.Submit(r1, start)
	s.Submit(r2, start)
	var c1, c2 uint64
	for now := start; now < start+500; now++ {
		for _, r := range s.Tick(now) {
			if r == r1 {
				c1 = now
			}
			if r == r2 {
				c2 = now
			}
		}
	}
	// Bank service overlaps; only the single-grant bus staggers them.
	gap := int64(c2) - int64(c1)
	if gap < 0 {
		gap = -gap
	}
	if gap >= int64(cfg.Mem.L2.Latency) {
		t.Fatalf("different-bank hits separated by %d cycles; banks did not overlap", gap)
	}
}

func TestHitHistogramOnlyCountsHits(t *testing.T) {
	cfg := config.Default(1)
	s := NewL2System(cfg)
	r1 := &Request{Addr: 0x40, IssuedAt: 0}
	s.Submit(r1, 0)
	run(t, s, r1, 1000)
	r2 := &Request{Addr: 0x40, IssuedAt: 400}
	s.Submit(r2, 400)
	run(t, s, r2, 1000)
	if s.HitLatency().Count() != 1 {
		t.Fatalf("hit histogram count = %d, want 1", s.HitLatency().Count())
	}
	if s.MissLatency().Count() != 1 {
		t.Fatalf("miss histogram count = %d, want 1", s.MissLatency().Count())
	}
}

func TestCountersConsistent(t *testing.T) {
	cfg := config.Default(2)
	s := NewL2System(cfg)
	addrs := []uint64{0x0, 0x40, 0x80, 0xc0, 0x1000, 0x0, 0x40}
	reqs := make([]*Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = &Request{Addr: a, CoreID: i % 2}
		s.Submit(reqs[i], 0)
	}
	completed := 0
	for now := uint64(0); now < 3000 && completed < len(reqs); now++ {
		completed += len(s.Tick(now))
	}
	if completed != len(reqs) {
		t.Fatalf("completed %d of %d", completed, len(reqs))
	}
	c := s.Counters()
	if c.Get("l2.requests") != uint64(len(reqs)) {
		t.Fatalf("l2.requests = %d", c.Get("l2.requests"))
	}
	if c.Get("l2.hits")+c.Get("l2.misses") != uint64(len(reqs)) {
		t.Fatalf("hits+misses = %d, want %d",
			c.Get("l2.hits")+c.Get("l2.misses"), len(reqs))
	}
	if c.Get("l2.fills") != c.Get("l2.misses") {
		t.Fatalf("fills %d != misses %d", c.Get("l2.fills"), c.Get("l2.misses"))
	}
	if c.Get("mem.reads") != c.Get("l2.misses") {
		t.Fatalf("mem.reads %d != misses %d", c.Get("mem.reads"), c.Get("l2.misses"))
	}
	if s.Drain() {
		t.Fatal("system should be drained")
	}
}

func TestContentionRaisesHitLatency(t *testing.T) {
	// Load the system heavily with hits and verify the mean hit latency
	// exceeds the uncontended minimum — the Figure 4 mechanism.
	cfg := config.Default(4)
	s := NewL2System(cfg)
	// Warm 64 lines.
	for i := 0; i < 64; i++ {
		r := &Request{Addr: uint64(i * 64)}
		s.Submit(r, 0)
	}
	for now := uint64(0); now < 3000; now++ {
		s.Tick(now)
	}
	if s.Drain() {
		t.Fatal("warmup did not drain")
	}
	// Storm of hits from 8 "threads".
	start := uint64(10000)
	issued := 0
	for now := start; now < start+2000; now++ {
		if issued < 400 && now%2 == 0 {
			addr := uint64((issued % 64) * 64)
			s.Submit(&Request{Addr: addr, IssuedAt: now, CoreID: issued % 4}, now)
			issued++
		}
		s.Tick(now)
	}
	h := s.HitLatency()
	if h.Count() < 300 {
		t.Fatalf("too few hits measured: %d", h.Count())
	}
	min := float64(minHitLatency(cfg))
	if h.Mean() <= min {
		t.Fatalf("mean hit latency %.1f not above uncontended %v under load", h.Mean(), min)
	}
	if h.Max() <= int(min)+5 {
		t.Fatalf("hit latency tail %d too short under load", h.Max())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (uint64, string) {
		cfg := config.Default(2)
		s := NewL2System(cfg)
		var lastDone uint64
		n := 0
		for now := uint64(0); now < 5000; now++ {
			if now%7 == 0 && n < 200 {
				s.Submit(&Request{Addr: uint64(n%50) * 64, IssuedAt: now}, now)
				n++
			}
			for range s.Tick(now) {
				lastDone = now
			}
		}
		return lastDone, s.Counters().String()
	}
	d1, c1 := runOnce()
	d2, c2 := runOnce()
	if d1 != d2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%q) vs (%d,%q)", d1, c1, d2, c2)
	}
}

func BenchmarkL2SystemTick(b *testing.B) {
	cfg := config.Default(4)
	s := NewL2System(cfg)
	n := 0
	for i := 0; i < b.N; i++ {
		now := uint64(i)
		if i%3 == 0 {
			s.Submit(&Request{Addr: uint64(n%256) * 64, IssuedAt: now}, now)
			n++
		}
		s.Tick(now)
	}
}
