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
	"math/bits"

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
	// tags[(bank*sets+set)*assoc+way]; 0 means empty, otherwise
	// lineAddr+1. Ways fill in order and are never invalidated, so a
	// set's valid ways are always a prefix of its ways.
	tags []uint64
	// order[bank*sets+set] is the set's recency list: nibble i holds the
	// way that is i-th most recently used, over the set's valid ways.
	// Nibbles past the valid ways are never consulted. 4-bit nibbles are
	// why a set has at most config.MaxAssoc ways.
	order []uint64
	// lines is the one allocation tags and order share, so Reset and
	// CopyFrom handle both at once.
	lines   []uint64
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
	if geom.Assoc > config.MaxAssoc {
		panic(fmt.Sprintf("cache: %d-way sets exceed the %d-way limit", geom.Assoc, config.MaxAssoc))
	}
	lineBits := uint(0)
	for 1<<lineBits < geom.LineBytes {
		lineBits++
	}
	c := &Cache{
		geom:     geom,
		sets:     sets,
		lineBits: lineBits,
		bankMask: uint64(geom.Banks - 1),
		setShift: uint(bitsFor(geom.Banks)),
	}
	nsets := geom.Banks * sets
	n := nsets * geom.Assoc
	c.lines = make([]uint64, n+nsets)
	c.tags, c.order = c.lines[:n:n], c.lines[n:]
	return c
}

// Reset empties the cache and zeroes its statistics, keeping its arrays:
// the cache then behaves exactly as a new one of its geometry.
func (c *Cache) Reset() {
	clear(c.lines)
	c.hits, c.misses, c.inserts = 0, 0, 0
}

// CopyFrom makes c an exact copy of src, lines, recency and statistics,
// without allocating. The two must share a geometry.
func (c *Cache) CopyFrom(src *Cache) {
	if c.geom != src.geom {
		panic(fmt.Sprintf("cache: copying a %+v cache into a %+v one", src.geom, c.geom))
	}
	copy(c.lines, src.lines)
	c.hits, c.misses, c.inserts = src.hits, src.misses, src.inserts
}

// LineAddr converts a byte address to a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits }

// BankOf returns the bank index serving the given byte address.
func (c *Cache) BankOf(addr uint64) int {
	return int(c.LineAddr(addr) & c.bankMask)
}

// setOf returns the index of the set holding line: its recency word in
// order, and (times assoc) its first way in tags.
func (c *Cache) setOf(line uint64) int {
	bank := int(line & c.bankMask)
	return bank*c.sets + int((line>>c.setShift)%uint64(c.sets))
}

// bitsFor returns log2 of a power of two.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Nibble masks for the SWAR search in touch.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// touch makes way the most recently used of set s, which must already
// list it: the nibbles in front of it shift back one place and way takes
// nibble 0. The way's place is the lowest zero nibble of order^way: the
// valid ways are distinct, and any nibble past them lies higher.
func (c *Cache) touch(s, way int) {
	o := c.order[s]
	x := o ^ uint64(way)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh)) &^ 3
	upto := uint64(1)<<(p+4) - 1 // nibbles 0..p/4; all ones when p is 60
	c.order[s] = o&^upto | (o&(upto>>4))<<4 | uint64(way)
}

// Probe reports whether the line holding addr is present, without touching
// replacement state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	line := c.LineAddr(addr)
	base := c.setOf(line) * c.geom.Assoc
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
	line := c.LineAddr(addr)
	s := c.setOf(line)
	base := s * c.geom.Assoc
	tag := line + 1
	for w := 0; w < c.geom.Assoc; w++ {
		if c.tags[base+w] == tag {
			c.touch(s, w)
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
	c.inserts++
	line := c.LineAddr(addr)
	s := c.setOf(line)
	base := s * c.geom.Assoc
	tag := line + 1
	for w := 0; w < c.geom.Assoc; w++ {
		i := base + w
		if c.tags[i] == tag {
			// Already present (a racing fill); just refresh.
			c.touch(s, w)
			return 0, false
		}
		if c.tags[i] == 0 {
			c.tags[i] = tag
			c.order[s] = c.order[s]<<4 | uint64(w)
			return 0, false
		}
	}
	victim := int(c.order[s]>>(4*uint(c.geom.Assoc-1))) & 0xF
	i := base + victim
	old := c.tags[i] - 1
	c.tags[i] = tag
	c.touch(s, victim)
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

// FreeEntry releases an entry the caller holds (from Lookup or Allocate)
// when its fill completes. Freeing a dead entry panics: it indicates
// double-completion.
func (m *MSHR) FreeEntry(e *MSHREntry) {
	if !e.valid {
		panic(fmt.Sprintf("cache: MSHR double free of line %#x", e.Line))
	}
	e.valid = false
	m.live--
}

// Reset frees every entry, leaving the file as NewMSHR built it.
func (m *MSHR) Reset() {
	for i := range m.entries {
		m.entries[i] = MSHREntry{slot: i}
	}
	m.live = 0
}

// InUse returns the number of live entries.
func (m *MSHR) InUse() int { return m.live }

// Full reports whether a new (non-merging) allocation would fail.
func (m *MSHR) Full() bool { return m.live >= len(m.entries) }

// Capacity returns the configured entry count.
func (m *MSHR) Capacity() int { return len(m.entries) }

// TLB is a fully-associative translation buffer with LRU replacement over
// page numbers. Each resident page holds a slot; a slot's stamp is the
// access clock of its last use, so a hit writes one array element and
// the victim of a full TLB is the slot with the least stamp (stamps are
// unique, so the victim is too).
type TLB struct {
	slot   map[uint64]int // page -> index into pages and stamps
	pages  []uint64
	stamps []uint64
	last   int // slot of the most recent access
	clock  uint64
	hits   uint64
	misses uint64
}

// NewTLB returns a TLB with the given entry count.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("cache: TLB capacity must be positive")
	}
	return &TLB{
		slot:   make(map[uint64]int, capacity),
		pages:  make([]uint64, 0, capacity),
		stamps: make([]uint64, 0, capacity),
	}
}

// Access looks up a page number, inserting it on miss (hardware-walked
// TLB). It returns true on hit.
func (t *TLB) Access(page uint64) bool {
	t.clock++
	i, ok := t.last, t.last < len(t.pages) && t.pages[t.last] == page
	if !ok {
		i, ok = t.slot[page]
	}
	if ok {
		t.stamps[i] = t.clock
		t.last = i
		t.hits++
		return true
	}
	t.misses++
	if len(t.pages) < cap(t.pages) {
		i = len(t.pages)
		t.pages = append(t.pages, page)
		t.stamps = append(t.stamps, t.clock)
	} else {
		i = 0
		for j, s := range t.stamps {
			if s < t.stamps[i] {
				i = j
			}
		}
		delete(t.slot, t.pages[i])
		t.pages[i] = page
		t.stamps[i] = t.clock
	}
	t.slot[page] = i
	t.last = i
	return false
}

// Reset empties the TLB and zeroes its statistics, keeping its map and
// arrays: it then behaves exactly as a new one of its capacity.
func (t *TLB) Reset() {
	clear(t.slot)
	*t = TLB{slot: t.slot, pages: t.pages[:0], stamps: t.stamps[:0]}
}

// Stats returns cumulative hits and misses.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }
