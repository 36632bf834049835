package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
)

func smallGeom() config.CacheGeom {
	// 4 banks x 8 sets x 2 ways x 64B lines = 4KB.
	return config.CacheGeom{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 2, Banks: 4, Latency: 1}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := New(smallGeom())
	addr := uint64(0x12340)
	if c.Access(addr) {
		t.Fatal("cold cache should miss")
	}
	c.Fill(addr)
	if !c.Access(addr) {
		t.Fatal("access after fill should hit")
	}
	// Same line, different byte offset.
	if !c.Access(addr + 63 - addr%64) {
		t.Fatal("same-line access should hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	g := smallGeom()
	c := New(g)
	// Three addresses mapping to the same bank and set: stride =
	// banks * sets * lineBytes.
	stride := uint64(g.Banks * c.sets * g.LineBytes)
	a, b, d := uint64(0x40), 0x40+stride, 0x40+2*stride
	c.Fill(a)
	c.Fill(b)
	c.Access(a) // make a MRU
	c.Fill(d)   // evicts b
	if !c.Probe(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Probe(b) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(d) {
		t.Fatal("new line missing")
	}
}

// TestCacheReleaseRecyclesEmpty: a released cache's arrays go to the next
// cache of its geometry, which must start as cold as a fresh one, while
// the released cache refuses further lookups.
func TestCacheReleaseRecyclesEmpty(t *testing.T) {
	g := smallGeom()
	reused := 0
	for i := 0; i < 20; i++ {
		old := New(g)
		for a := uint64(0); a < uint64(g.SizeBytes); a += uint64(g.LineBytes) {
			old.Fill(a)
		}
		backing := &old.lines[0]
		old.Release()
		c := New(g)
		if &c.lines[0] == backing {
			reused++
		}
		for a := uint64(0); a < uint64(g.SizeBytes); a += uint64(g.LineBytes) {
			if c.Probe(a) {
				t.Fatalf("round %d: new cache already holds %#x", i, a)
			}
		}
		for _, v := range c.stamp {
			if v != 0 {
				t.Fatalf("round %d: new cache starts with LRU stamp %d", i, v)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("access to a released cache did not panic")
				}
			}()
			old.Access(0)
		}()
	}
	if reused == 0 {
		t.Fatal("no released array was ever reused")
	}
}

func TestCacheEvictionReportsVictim(t *testing.T) {
	g := smallGeom()
	c := New(g)
	stride := uint64(g.Banks * c.sets * g.LineBytes)
	c.Fill(0x80)
	c.Fill(0x80 + stride)
	ev, valid := c.Fill(0x80 + 2*stride)
	if !valid {
		t.Fatal("full set fill should evict")
	}
	if c.LineAddr(ev) != c.LineAddr(0x80) {
		t.Fatalf("evicted %#x, want line of 0x80", ev)
	}
}

func TestCacheDoubleFillIsIdempotent(t *testing.T) {
	c := New(smallGeom())
	c.Fill(0x100)
	ev, valid := c.Fill(0x100)
	if valid || ev != 0 {
		t.Fatal("re-filling a resident line must not evict")
	}
}

func TestCacheBankDistribution(t *testing.T) {
	g := smallGeom()
	c := New(g)
	seen := map[int]bool{}
	for i := 0; i < g.Banks; i++ {
		seen[c.BankOf(uint64(i*g.LineBytes))] = true
	}
	if len(seen) != g.Banks {
		t.Fatalf("consecutive lines cover %d banks, want %d", len(seen), g.Banks)
	}
	// Same line, any offset: same bank.
	if c.BankOf(0x1000) != c.BankOf(0x1000+63) {
		t.Fatal("bank depends on byte offset within a line")
	}
}

func TestCacheStats(t *testing.T) {
	c := New(smallGeom())
	c.Access(0x0)
	c.Fill(0x0)
	c.Access(0x0)
	h, m, ins := c.Stats()
	if h != 1 || m != 1 || ins != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", h, m, ins)
	}
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v", got)
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	// Property: after any fill sequence, every set holds at most assoc
	// distinct lines, and a just-filled line is always resident.
	g := smallGeom()
	f := func(addrs []uint32) bool {
		c := New(g)
		for _, a := range addrs {
			addr := uint64(a)
			c.Fill(addr)
			if !c.Probe(addr) {
				return false
			}
		}
		counts := map[int]int{}
		for i, tag := range c.tags {
			if tag != 0 {
				counts[i/g.Assoc]++
			}
		}
		for _, n := range counts {
			if n > g.Assoc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	// A working set smaller than the cache should converge to ~0 miss
	// rate; one much larger should keep missing.
	g := smallGeom() // 4KB
	small := New(g)
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		addr := uint64(r.Intn(2 << 10)) // 2KB working set
		if !small.Access(addr) {
			small.Fill(addr)
		}
	}
	if rate := small.MissRate(); rate > 0.01 {
		t.Fatalf("small working set miss rate %v", rate)
	}
	big := New(g)
	for i := 0; i < 20000; i++ {
		addr := uint64(r.Intn(1 << 20)) // 1MB working set
		if !big.Access(addr) {
			big.Fill(addr)
		}
	}
	if rate := big.MissRate(); rate < 0.5 {
		t.Fatalf("large working set miss rate %v suspiciously low", rate)
	}
}

func TestMSHRAllocateMergeFree(t *testing.T) {
	m := NewMSHR(2)
	e1, merged, ok := m.Allocate(100)
	if !ok || merged || e1.Waiters != 1 {
		t.Fatalf("first allocate: %+v merged=%t ok=%t", e1, merged, ok)
	}
	e2, merged, ok := m.Allocate(100)
	if !ok || !merged || e2 != e1 || e1.Waiters != 2 {
		t.Fatal("second allocate to same line should merge")
	}
	if m.InUse() != 1 {
		t.Fatalf("in use = %d, want 1", m.InUse())
	}
	if w := m.Free(100); w != 2 {
		t.Fatalf("freed waiters = %d, want 2", w)
	}
	if m.InUse() != 0 {
		t.Fatal("entry not freed")
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1)
	m.Allocate(2)
	if !m.Full() {
		t.Fatal("MSHR should be full")
	}
	if _, _, ok := m.Allocate(3); ok {
		t.Fatal("allocation beyond capacity succeeded")
	}
	// Merging is still allowed when full.
	if _, merged, ok := m.Allocate(1); !ok || !merged {
		t.Fatal("merge into full MSHR should succeed")
	}
}

func TestMSHRFreeAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMSHR(1).Free(42)
}

func TestMSHRProperty(t *testing.T) {
	// Property: InUse never exceeds capacity; total waiters across
	// entries equals allocations minus freed waiters.
	f := func(ops []uint8) bool {
		m := NewMSHR(4)
		allocated := 0
		freedWaiters := 0
		for _, op := range ops {
			line := uint64(op % 8)
			if op < 200 {
				if _, _, ok := m.Allocate(line); ok {
					allocated++
				}
			} else if m.Lookup(line) != nil {
				freedWaiters += m.Free(line)
			}
			if m.InUse() > m.Capacity() {
				return false
			}
		}
		live := 0
		for line := uint64(0); line < 8; line++ {
			if e := m.Lookup(line); e != nil {
				live += e.Waiters
			}
		}
		return allocated == freedWaiters+live
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitMissAndLRU(t *testing.T) {
	tlb := NewTLB(2)
	if tlb.Access(1) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(1) {
		t.Fatal("warm TLB miss")
	}
	tlb.Access(2)
	tlb.Access(1) // 2 becomes LRU
	tlb.Access(3) // evicts 2
	if tlb.Access(2) {
		t.Fatal("evicted page still resident")
	}
	h, m := tlb.Stats()
	if h != 2 || m != 4 {
		t.Fatalf("stats = %d/%d, want 2/4", h, m)
	}
}

func TestTLBCapacityBound(t *testing.T) {
	tlb := NewTLB(8)
	for p := uint64(0); p < 100; p++ {
		tlb.Access(p)
	}
	if len(tlb.stamp) > 8 {
		t.Fatalf("TLB holds %d entries, capacity 8", len(tlb.stamp))
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mshr":  func() { NewMSHR(0) },
		"tlb":   func() { NewTLB(0) },
		"cache": func() { New(config.CacheGeom{SizeBytes: 64, LineBytes: 64, Assoc: 2, Banks: 2, Latency: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(config.Default(1).Mem.L2)
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(8 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if !c.Access(a) {
			c.Fill(a)
		}
	}
}
