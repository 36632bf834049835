// Package cache provides the tag-array models used throughout the memory
// hierarchy: a banked set-associative cache with LRU replacement, a miss
// status holding register (MSHR) file, and a fully-associative TLB.
//
// These are timing models: they track presence and replacement, not data.
// Bank port occupancy is scheduled by the owning controller (internal/mem),
// which knows the clock.
package cache

import (
	"fmt"
	"sync"

	"repro/internal/config"
)

// Cache is a banked set-associative tag store with true-LRU replacement.
// Addresses are byte addresses; the cache derives line, bank and set
// indices from its geometry. Line addresses are distributed across banks
// by their low-order line bits, so consecutive lines hit different banks.
type Cache struct {
	geom     config.CacheGeom
	sets     int
	lineBits uint
	bankMask uint64
	// setShift drops the bank bits from a line address before the set
	// index is taken (log2 of the bank count).
	setShift uint
	// bankStride is sets*assoc: ways of (bank, set) start at
	// bank*bankStride + set*assoc in the flat arrays below (one
	// allocation each, better locality than per-bank slices).
	bankStride int
	// tags[bank*bankStride+set*assoc+way]; 0 means empty, otherwise
	// lineAddr+1.
	tags []uint64
	// stamp mirrors tags with LRU timestamps.
	stamp []uint64
	// lines is the one allocation tags and stamp share, kept for Release.
	lines   []uint64
	clock   uint64
	hits    uint64
	misses  uint64
	inserts uint64
}

// New constructs a cache from its geometry.
func New(geom config.CacheGeom) *Cache {
	sets := geom.Sets()
	if sets < 1 {
		panic(fmt.Sprintf("cache: geometry %+v yields no sets", geom))
	}
	lineBits := uint(0)
	for 1<<lineBits < geom.LineBytes {
		lineBits++
	}
	c := &Cache{
		geom:       geom,
		sets:       sets,
		lineBits:   lineBits,
		bankMask:   uint64(geom.Banks - 1),
		setShift:   uint(bitsFor(geom.Banks)),
		bankStride: sets * geom.Assoc,
	}
	n := geom.Banks * sets * geom.Assoc
	c.lines = takeLines(2 * n)
	c.tags, c.stamp = c.lines[:n:n], c.lines[n:]
	return c
}

// linePools recycles the tag-and-stamp arrays of released caches, one
// sync.Pool per array length. A sweep finishes machines and builds new
// ones back to back, and the L2's arrays are most of a machine's memory:
// handing them on keeps every gang start from allocating megabytes
// afresh, which would otherwise land in whatever garbage-collection cycle
// is marking at the time and inflate the next heap target.
var linePools sync.Map // int -> *sync.Pool of *[]uint64

// takeLines returns a zeroed array of n entries, recycled when a released
// cache left one of that length.
func takeLines(n int) []uint64 {
	if p, ok := linePools.Load(n); ok {
		if a, ok := p.(*sync.Pool).Get().(*[]uint64); ok {
			clear(*a)
			return *a
		}
	}
	return make([]uint64, n)
}

// Release hands the cache's arrays to the next cache built with the same
// geometry. The cache is unusable afterwards: a later lookup or fill
// panics rather than touching lines another cache now owns. Statistics
// stay readable. Call it once the owning machine is finished.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	lines := c.lines
	c.lines, c.tags, c.stamp = nil, nil, nil
	p, _ := linePools.LoadOrStore(len(lines), new(sync.Pool))
	p.(*sync.Pool).Put(&lines)
}

// Geometry returns the construction geometry.
func (c *Cache) Geometry() config.CacheGeom { return c.geom }

// LineAddr converts a byte address to a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits }

// BankOf returns the bank index serving the given byte address.
func (c *Cache) BankOf(addr uint64) int {
	return int(c.LineAddr(addr) & c.bankMask)
}

func (c *Cache) setOf(line uint64) int {
	return int((line >> c.setShift) % uint64(c.sets))
}

// bitsFor returns log2 of a power of two.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Probe reports whether the line holding addr is present, without touching
// replacement state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	line := c.LineAddr(addr)
	base := c.BankOf(addr)*c.bankStride + c.setOf(line)*c.geom.Assoc
	tag := line + 1
	for w := 0; w < c.geom.Assoc; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Access performs a lookup for addr, updating LRU state and hit/miss
// counters. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := c.LineAddr(addr)
	base := c.BankOf(addr)*c.bankStride + c.setOf(line)*c.geom.Assoc
	tag := line + 1
	for w := 0; w < c.geom.Assoc; w++ {
		if c.tags[base+w] == tag {
			c.stamp[base+w] = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Fill inserts the line holding addr, evicting the LRU way if the set is
// full. It returns the evicted line address and true if a valid line was
// displaced.
func (c *Cache) Fill(addr uint64) (evicted uint64, wasValid bool) {
	c.clock++
	c.inserts++
	line := c.LineAddr(addr)
	base := c.BankOf(addr)*c.bankStride + c.setOf(line)*c.geom.Assoc
	tag := line + 1
	victim := 0
	for w := 0; w < c.geom.Assoc; w++ {
		i := base + w
		if c.tags[i] == tag {
			// Already present (a racing fill); just refresh.
			c.stamp[i] = c.clock
			return 0, false
		}
		if c.tags[i] == 0 {
			c.tags[i] = tag
			c.stamp[i] = c.clock
			return 0, false
		}
		if c.stamp[i] < c.stamp[base+victim] {
			victim = w
		}
	}
	i := base + victim
	old := c.tags[i] - 1
	c.tags[i] = tag
	c.stamp[i] = c.clock
	return old << c.lineBits, true
}

// Stats returns cumulative hits, misses and fills.
func (c *Cache) Stats() (hits, misses, inserts uint64) {
	return c.hits, c.misses, c.inserts
}

// MissRate returns misses / accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	tot := c.hits + c.misses
	if tot == 0 {
		return 0
	}
	return float64(c.misses) / float64(tot)
}

// MSHR is a miss status holding register file. Each entry tracks one
// outstanding line fill; subsequent misses to the same line merge into the
// existing entry instead of issuing duplicate requests.
//
// The file is a fixed array (as the hardware is): lookups scan at most
// capacity entries, and no allocation happens after construction. Entry
// pointers stay valid while the entry is live, and Slot exposes the stable
// array index so clients can keep per-entry side state in parallel arrays.
type MSHR struct {
	entries []MSHREntry
	live    int
}

// MSHREntry records one outstanding miss.
type MSHREntry struct {
	// Line is the line address being fetched.
	Line uint64
	// Waiters is the number of requests merged into this entry.
	Waiters int
	// Issued marks whether the fill request has been sent downstream.
	Issued bool

	valid bool
	slot  int
}

// Slot returns the entry's stable index in [0, Capacity).
func (e *MSHREntry) Slot() int { return e.slot }

// NewMSHR returns an MSHR file with the given entry count.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	m := &MSHR{entries: make([]MSHREntry, capacity)}
	for i := range m.entries {
		m.entries[i].slot = i
	}
	return m
}

// Lookup returns the entry for the line, or nil.
func (m *MSHR) Lookup(line uint64) *MSHREntry {
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].Line == line {
			return &m.entries[i]
		}
	}
	return nil
}

// Allocate records a miss for line. If an entry already exists the miss is
// merged (secondary miss) and merged=true is returned. If the file is full
// and no entry exists, ok=false is returned and the requester must stall.
func (m *MSHR) Allocate(line uint64) (e *MSHREntry, merged, ok bool) {
	free := -1
	for i := range m.entries {
		if !m.entries[i].valid {
			if free < 0 {
				free = i
			}
			continue
		}
		if m.entries[i].Line == line {
			m.entries[i].Waiters++
			return &m.entries[i], true, true
		}
	}
	if free < 0 {
		return nil, false, false
	}
	e = &m.entries[free]
	e.Line = line
	e.Waiters = 1
	e.Issued = false
	e.valid = true
	m.live++
	return e, false, true
}

// Free releases the entry for line when its fill completes, returning the
// number of waiters that were blocked on it. Freeing an absent line
// panics: it indicates double-completion.
func (m *MSHR) Free(line uint64) int {
	e := m.Lookup(line)
	if e == nil {
		panic(fmt.Sprintf("cache: MSHR free of absent line %#x", line))
	}
	m.FreeEntry(e)
	return e.Waiters
}

// FreeEntry releases an entry the caller already holds (from Lookup or
// Allocate), avoiding Free's re-scan. Freeing a dead entry panics.
func (m *MSHR) FreeEntry(e *MSHREntry) {
	if !e.valid {
		panic(fmt.Sprintf("cache: MSHR double free of line %#x", e.Line))
	}
	e.valid = false
	m.live--
}

// InUse returns the number of live entries.
func (m *MSHR) InUse() int { return m.live }

// Full reports whether a new (non-merging) allocation would fail.
func (m *MSHR) Full() bool { return m.live >= len(m.entries) }

// Capacity returns the configured entry count.
func (m *MSHR) Capacity() int { return len(m.entries) }

// TLB is a fully-associative translation buffer with LRU replacement over
// page numbers.
type TLB struct {
	capacity int
	stamp    map[uint64]uint64
	clock    uint64
	hits     uint64
	misses   uint64
}

// NewTLB returns a TLB with the given entry count.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("cache: TLB capacity must be positive")
	}
	return &TLB{capacity: capacity, stamp: make(map[uint64]uint64, capacity)}
}

// Access looks up a page number, inserting it on miss (hardware-walked
// TLB). It returns true on hit.
func (t *TLB) Access(page uint64) bool {
	t.clock++
	if _, ok := t.stamp[page]; ok {
		t.stamp[page] = t.clock
		t.hits++
		return true
	}
	t.misses++
	if len(t.stamp) >= t.capacity {
		var lruPage uint64
		lru := ^uint64(0)
		for p, s := range t.stamp {
			if s < lru {
				lru = s
				lruPage = p
			}
		}
		delete(t.stamp, lruPage)
	}
	t.stamp[page] = t.clock
	return false
}

// Stats returns cumulative hits and misses.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }
