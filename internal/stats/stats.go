// Package stats provides the measurement primitives used by the simulator:
// scalar counters, latency histograms (for the paper's Figure 4 L2 hit-time
// analysis) and small aggregation helpers.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Histogram accumulates integer samples (cycle latencies) into exact
// per-value counts up to a bound, with an overflow bucket beyond it. It
// supports the percentile and banding queries the Figure 4 analysis needs.
type Histogram struct {
	counts   []uint64
	overflow uint64
	total    uint64
	sum      uint64
	min, max int
}

// NewHistogram returns a histogram with exact buckets for values in
// [0, bound); larger samples land in the overflow bucket (counted with
// value bound for the mean).
func NewHistogram(bound int) *Histogram {
	if bound <= 0 {
		panic("stats: histogram bound must be positive")
	}
	return &Histogram{counts: make([]uint64, bound), min: -1, max: -1}
}

// Add records one sample. Negative samples panic: latencies cannot be
// negative and a negative value always indicates a simulator bug.
func (h *Histogram) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative sample %d", v))
	}
	h.total++
	if v >= len(h.counts) {
		h.overflow++
		h.sum += uint64(len(h.counts))
	} else {
		h.counts[v]++
		h.sum += uint64(v)
	}
	if h.min == -1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Overflow returns the number of samples beyond the exact range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Mean returns the average sample (overflow samples are clamped to the
// bound, making the mean a lower bound in the presence of overflow).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min and Max return the extreme recorded samples, or -1 when empty.
func (h *Histogram) Min() int { return h.min }

// Max returns the largest recorded sample, or -1 when empty.
func (h *Histogram) Max() int { return h.max }

// Percentile returns the smallest value v such that at least p (0..1) of
// the samples are <= v. Overflow samples are treated as the bound.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(p * float64(h.total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= need {
			return v
		}
	}
	return len(h.counts)
}

// FracBetween returns the fraction of samples in [lo, hi).
func (h *Histogram) FracBetween(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(h.counts) {
		hi = len(h.counts)
	}
	var n uint64
	for v := lo; v < hi; v++ {
		n += h.counts[v]
	}
	return float64(n) / float64(h.total)
}

// Buckets returns counts re-binned into equal-width bins of the given
// width, plus the overflow count. Used to print Figure 4-style
// distributions.
func (h *Histogram) Buckets(width int) ([]uint64, uint64) {
	if width <= 0 {
		panic("stats: bucket width must be positive")
	}
	n := (len(h.counts) + width - 1) / width
	out := make([]uint64, n)
	for v, c := range h.counts {
		out[v/width] += c
	}
	return out, h.overflow
}

// Merge adds all samples of other into h. The histograms must have the
// same bound.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.counts) != len(other.counts) {
		panic("stats: merging histograms with different bounds")
	}
	for v, c := range other.counts {
		h.counts[v] += c
	}
	h.overflow += other.overflow
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if h.min == -1 || (other.min != -1 && other.min < h.min) {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// String renders a compact summary for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%d p50=%d p90=%d max=%d overflow=%d",
		h.total, h.Mean(), h.min, h.Percentile(0.5), h.Percentile(0.9), h.max, h.overflow)
}

// Counter is a named monotonically increasing counter.
type Counter struct {
	Name  string
	Value uint64
}

// CounterID is a dense index into a Set's typed counter array. IDs are
// allocated by MustRegister; Bump(id, delta) is a bounds-checked array add,
// so per-cycle simulator code pays no string hashing.
type CounterID int32

var (
	registryMu    sync.RWMutex
	registryNames []string
	registryIDs   = make(map[string]CounterID)
)

// MustRegister allocates (or returns the existing) CounterID for name.
// Registration normally runs from package-level var initialisers, but the
// registry is fully locked so late registration (tests, new subsystems)
// stays safe alongside concurrent simulations.
func MustRegister(name string) CounterID {
	registryMu.Lock()
	defer registryMu.Unlock()
	if id, ok := registryIDs[name]; ok {
		return id
	}
	id := CounterID(len(registryNames))
	registryNames = append(registryNames, name)
	registryIDs[name] = id
	return id
}

// idOf resolves a registered name under the read lock. Only Get pays
// this; Bump never touches the registry once the array is grown.
func idOf(name string) (CounterID, bool) {
	registryMu.RLock()
	id, ok := registryIDs[name]
	registryMu.RUnlock()
	return id, ok
}

// nameOf returns the registered name for id.
func nameOf(id int) string {
	registryMu.RLock()
	n := registryNames[id]
	registryMu.RUnlock()
	return n
}

// Set is a collection of registered counters. The zero value is ready
// to use. Values live in a dense array indexed by CounterID; the names
// MustRegister gave them serve only reporting (Get, All, String).
type Set struct {
	dense []uint64
}

// Delta is the growth of one registered counter between two readings.
type Delta struct {
	ID CounterID
	N  uint64
}

// AppendValues appends the registered counters' values, indexed by
// CounterID, to dst and returns the extended slice: a reading for
// AppendDeltas that allocates nothing once dst has capacity.
func (s *Set) AppendValues(dst []uint64) []uint64 { return append(dst, s.dense...) }

// AppendDeltas appends the growth of every registered counter that grew
// since base, an AppendValues reading of the same set, to dst and returns
// the extended slice.
func (s *Set) AppendDeltas(dst []Delta, base []uint64) []Delta {
	for id, v := range s.dense {
		var b uint64
		if id < len(base) {
			b = base[id]
		}
		if v != b {
			dst = append(dst, Delta{ID: CounterID(id), N: v - b})
		}
	}
	return dst
}

// Bump adds delta to the registered counter. This is the hot-path
// increment: one bounds check and one add once the array is grown.
func (s *Set) Bump(id CounterID, delta uint64) {
	if int(id) >= len(s.dense) {
		s.growDense()
	}
	s.dense[id] += delta
}

// growDense sizes the dense array to the current registry. Out-of-line so
// Bump stays inlinable.
func (s *Set) growDense() {
	registryMu.RLock()
	n := len(registryNames)
	registryMu.RUnlock()
	grown := make([]uint64, n)
	copy(grown, s.dense)
	s.dense = grown
}

// Value returns the registered counter's value without consulting the
// name registry: one bounds check and one array read, so samplers that
// poll counters every few cycles pay no lock or hash.
func (s *Set) Value(id CounterID) uint64 {
	if int(id) < len(s.dense) {
		return s.dense[id]
	}
	return 0
}

// Get returns the registered counter's value (zero if never bumped or
// not registered).
func (s *Set) Get(name string) uint64 {
	if id, ok := idOf(name); ok {
		return s.Value(id)
	}
	return 0
}

// All returns the registered counters with non-zero values, in
// registration order.
func (s *Set) All() []Counter {
	out := make([]Counter, 0, len(s.dense))
	for id, v := range s.dense {
		if v != 0 {
			out = append(out, Counter{Name: nameOf(id), Value: v})
		}
	}
	return out
}

// Merge adds all counters from other into s.
func (s *Set) Merge(other *Set) {
	if len(other.dense) > len(s.dense) {
		s.growDense()
	}
	for id, v := range other.dense {
		s.dense[id] += v
	}
}

// String renders "name=value" pairs sorted by name, for stable test output.
func (s *Set) String() string {
	all := s.All()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	parts := make([]string, 0, len(all))
	for _, c := range all {
		parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Value))
	}
	return strings.Join(parts, " ")
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
