package cache

import (
	"fmt"
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
// cache of its geometry, which must start as cold as a fresh one and pick
// the same victims, while the released cache refuses further lookups.
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
		// Three passes over twice the capacity, in an order that differs
		// from the fill above, so leftover recency state would show as a
		// different victim.
		fresh := newStampModel(g)
		for pass := 0; pass < 3; pass++ {
			for line := 2*g.SizeBytes/g.LineBytes - 1; line >= 0; line-- {
				a := uint64(line * g.LineBytes)
				ev, valid := c.Fill(a)
				wantEv, wantValid := fresh.fill(a)
				if ev != wantEv || valid != wantValid {
					t.Fatalf("round %d: recycled cache evicted (%#x, %t) filling %#x, fresh one (%#x, %t)",
						i, ev, valid, a, wantEv, wantValid)
				}
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

// stampModel is the reference true-LRU cache the recency words replace:
// every Access hit and Fill stamps its way with a rising clock, and the
// victim is the way with the smallest stamp. It shares Cache's address
// mapping so the two can be compared operation by operation.
type stampModel struct {
	c     *Cache // address mapping only; its arrays are never touched
	tags  []uint64
	stamp []uint64
	clock uint64
}

func newStampModel(g config.CacheGeom) *stampModel {
	n := g.Banks * g.Sets() * g.Assoc
	return &stampModel{c: New(g), tags: make([]uint64, n), stamp: make([]uint64, n)}
}

func (m *stampModel) ways(addr uint64) (base int, tag uint64) {
	line := m.c.LineAddr(addr)
	return m.c.setOf(line) * m.c.geom.Assoc, line + 1
}

func (m *stampModel) probe(addr uint64) bool {
	base, tag := m.ways(addr)
	for w := 0; w < m.c.geom.Assoc; w++ {
		if m.tags[base+w] == tag {
			return true
		}
	}
	return false
}

func (m *stampModel) access(addr uint64) bool {
	m.clock++
	base, tag := m.ways(addr)
	for w := 0; w < m.c.geom.Assoc; w++ {
		if m.tags[base+w] == tag {
			m.stamp[base+w] = m.clock
			return true
		}
	}
	return false
}

func (m *stampModel) fill(addr uint64) (evicted uint64, wasValid bool) {
	m.clock++
	base, tag := m.ways(addr)
	victim := 0
	for w := 0; w < m.c.geom.Assoc; w++ {
		i := base + w
		if m.tags[i] == tag {
			m.stamp[i] = m.clock
			return 0, false
		}
		if m.tags[i] == 0 {
			m.tags[i] = tag
			m.stamp[i] = m.clock
			return 0, false
		}
		if m.stamp[i] < m.stamp[base+victim] {
			victim = w
		}
	}
	i := base + victim
	old := m.tags[i] - 1
	m.tags[i] = tag
	m.stamp[i] = m.clock
	return old << m.c.lineBits, true
}

// lruAssocs are the associativities the equivalence checks cover: direct
// mapped, the L1s' 4 ways, the L2's 12, and the 16-way limit.
var lruAssocs = []int{1, 2, 4, 12, 16}

// lruGeom is a small 2-bank, 4-set geometry of the given associativity,
// so short random sequences both hit and evict.
func lruGeom(assoc int) config.CacheGeom {
	return config.CacheGeom{SizeBytes: 64 * assoc * 2 * 4, LineBytes: 64, Assoc: assoc, Banks: 2, Latency: 1}
}

// lruCheck applies one operation to both the cache and the model and
// reports the first disagreement. op selects Access, Fill or Probe; line
// indexes a pool of three times the cache's lines.
func lruCheck(c *Cache, m *stampModel, op byte, line uint64) string {
	addr := line % (3 * uint64(c.geom.SizeBytes/c.geom.LineBytes)) * uint64(c.geom.LineBytes)
	switch op % 3 {
	case 0:
		if got, want := c.Access(addr), m.access(addr); got != want {
			return fmt.Sprintf("Access(%#x) hit=%t, model %t", addr, got, want)
		}
	case 1:
		ev, valid := c.Fill(addr)
		if wantEv, wantValid := m.fill(addr); ev != wantEv || valid != wantValid {
			return fmt.Sprintf("Fill(%#x) evicted (%#x, %t), model (%#x, %t)", addr, ev, valid, wantEv, wantValid)
		}
	default:
		if got, want := c.Probe(addr), m.probe(addr); got != want {
			return fmt.Sprintf("Probe(%#x) = %t, model %t", addr, got, want)
		}
	}
	return ""
}

// TestLRUMatchesStampModel: random Access/Fill/Probe sequences give the
// same hits, misses and victims as the stamp-based model, at every
// supported associativity shape.
func TestLRUMatchesStampModel(t *testing.T) {
	for _, assoc := range lruAssocs {
		r := rng.New(uint64(assoc))
		for seq := 0; seq < 20; seq++ {
			c, m := New(lruGeom(assoc)), newStampModel(lruGeom(assoc))
			for i := 0; i < 2000; i++ {
				if msg := lruCheck(c, m, byte(r.Intn(3)), uint64(r.Intn(1<<16))); msg != "" {
					t.Fatalf("assoc %d, sequence %d, op %d: %s", assoc, seq, i, msg)
				}
			}
			if h, mi, _ := c.Stats(); h+mi == 0 {
				t.Fatalf("assoc %d: sequence made no accesses", assoc)
			}
		}
	}
}

// FuzzCacheLRU drives the cache and the stamp model with the same
// operations: the first byte picks the associativity, then each byte
// pair is an operation and a line.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 5, 0, 0})
	f.Add([]byte{3, 1, 1, 1, 2, 1, 3, 0, 1, 1, 4, 2, 2})
	f.Add([]byte{4, 1, 0, 1, 8, 1, 16, 1, 24, 0, 8, 1, 32, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := lruGeom(lruAssocs[int(data[0])%len(lruAssocs)])
		c, m := New(g), newStampModel(g)
		for i := 1; i+1 < len(data); i += 2 {
			if msg := lruCheck(c, m, data[i], uint64(data[i+1])); msg != "" {
				t.Fatalf("assoc %d, op %d: %s", g.Assoc, i/2, msg)
			}
		}
	})
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
	m.FreeEntry(e1)
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
	m := NewMSHR(1)
	e, _, _ := m.Allocate(42)
	m.FreeEntry(e)
	m.FreeEntry(e)
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
			} else if e := m.Lookup(line); e != nil {
				freedWaiters += e.Waiters
				m.FreeEntry(e)
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
	if len(tlb.slot) > 8 || len(tlb.pages) > 8 {
		t.Fatalf("TLB holds %d entries (%d slots), capacity 8", len(tlb.slot), len(tlb.pages))
	}
}

// stampTLB is the reference TLB the slot arrays must reproduce: a map
// from page to last-use stamp, evicting the least-recent stamp.
type stampTLB struct {
	capacity int
	stamp    map[uint64]uint64
	clock    uint64
}

func (m *stampTLB) access(page uint64) bool {
	m.clock++
	if _, ok := m.stamp[page]; ok {
		m.stamp[page] = m.clock
		return true
	}
	if len(m.stamp) >= m.capacity {
		var lruPage uint64
		lru := ^uint64(0)
		for p, s := range m.stamp {
			if s < lru {
				lru, lruPage = s, p
			}
		}
		delete(m.stamp, lruPage)
	}
	m.stamp[page] = m.clock
	return false
}

// tlbCapacities are the sizes the equivalence checks cover: one entry,
// two, a small TLB, and the machine's 512.
var tlbCapacities = []int{1, 2, 8, 512}

// tlbCheck drives both TLBs over pages and reports the first access
// whose hit or miss differs.
func tlbCheck(capacity int, pages []uint64) string {
	tlb, m := NewTLB(capacity), &stampTLB{capacity: capacity, stamp: map[uint64]uint64{}}
	for i, p := range pages {
		if got, want := tlb.Access(p), m.access(p); got != want {
			return fmt.Sprintf("capacity %d, access %d (page %d): hit=%t, model %t", capacity, i, p, got, want)
		}
	}
	return ""
}

// TestTLBMatchesStampModel: random page sequences, drawn from pools of
// half to three times the capacity so both hits and evictions happen,
// give the same hit or miss on every access as the stamp model.
func TestTLBMatchesStampModel(t *testing.T) {
	for _, capacity := range tlbCapacities {
		r := rng.New(uint64(capacity))
		for _, pool := range []int{capacity/2 + 1, capacity + 1, 3 * capacity} {
			pages := make([]uint64, 20*capacity+200)
			for i := range pages {
				pages[i] = uint64(r.Intn(pool))
			}
			if msg := tlbCheck(capacity, pages); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// FuzzTLB drives the TLB and the stamp model with the same pages: the
// first byte picks the capacity, each later byte is a page.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 1})
	f.Add([]byte{1, 1, 2, 1, 3, 2, 1, 3})
	f.Add([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pages := make([]uint64, len(data)-1)
		for i, b := range data[1:] {
			pages[i] = uint64(b)
		}
		if msg := tlbCheck(tlbCapacities[int(data[0])%len(tlbCapacities)], pages); msg != "" {
			t.Fatal(msg)
		}
	})
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
