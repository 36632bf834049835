package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/resettest"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(100)
	for _, v := range []int{10, 20, 20, 30} {
		h.Add(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 20 {
		t.Fatalf("mean = %v, want 20", got)
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10)
	h.Add(5)
	h.Add(100)
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	// Overflow clamps to the bound for the mean: (5+10)/2.
	if got := h.Mean(); got != 7.5 {
		t.Fatalf("mean = %v, want 7.5", got)
	}
	if h.Percentile(1.0) != 10 {
		t.Fatalf("p100 = %d, want bound", h.Percentile(1.0))
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1000)
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if got := h.Percentile(0.5); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := h.Percentile(0.9); got != 90 {
		t.Fatalf("p90 = %d, want 90", got)
	}
	if got := h.Percentile(0.01); got != 1 {
		t.Fatalf("p1 = %d, want 1", got)
	}
	// Clamping of out-of-range p.
	if h.Percentile(-1) != 1 || h.Percentile(2) != 100 {
		t.Fatal("percentile clamping broken")
	}
}

func TestHistogramFracBetween(t *testing.T) {
	h := NewHistogram(100)
	for v := 0; v < 100; v++ {
		h.Add(v)
	}
	if got := h.FracBetween(20, 70); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("frac[20,70) = %v, want 0.5", got)
	}
	if got := h.FracBetween(-5, 200); got != 1 {
		t.Fatalf("clamped full range frac = %v, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(100)
	h.Add(0)
	h.Add(9)
	h.Add(10)
	h.Add(95)
	h.Add(200) // overflow
	buckets, over := h.Buckets(10)
	if len(buckets) != 10 {
		t.Fatalf("bucket count = %d", len(buckets))
	}
	if buckets[0] != 2 || buckets[1] != 1 || buckets[9] != 1 {
		t.Fatalf("buckets = %v", buckets)
	}
	if over != 1 {
		t.Fatalf("overflow = %d", over)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(50)
	b := NewHistogram(50)
	a.Add(1)
	a.Add(2)
	b.Add(40)
	b.Add(60) // overflow
	a.Merge(b)
	if a.Count() != 4 || a.Overflow() != 1 {
		t.Fatalf("merged count/overflow = %d/%d", a.Count(), a.Overflow())
	}
	if a.Min() != 1 || a.Max() != 60 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	a := NewHistogram(10)
	b := NewHistogram(10)
	b.Add(3)
	b.Merge(a) // merging an empty histogram must not disturb min/max
	if b.Min() != 3 || b.Max() != 3 || b.Count() != 1 {
		t.Fatalf("after empty merge: %s", b)
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic(t, "bound 0", func() { NewHistogram(0) })
	mustPanic(t, "negative sample", func() { NewHistogram(5).Add(-1) })
	mustPanic(t, "bucket width", func() { NewHistogram(5).Buckets(0) })
	mustPanic(t, "merge mismatch", func() {
		NewHistogram(5).Merge(NewHistogram(6))
	})
}

func TestHistogramPropertyTotals(t *testing.T) {
	// Property: count equals the sum over all bins plus overflow, and the
	// min/max bracket every sample.
	f := func(raw []uint16) bool {
		h := NewHistogram(256)
		lo, hi := -1, -1
		for _, r := range raw {
			v := int(r % 512)
			h.Add(v)
			if lo == -1 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		buckets, over := h.Buckets(16)
		var sum uint64
		for _, b := range buckets {
			sum += b
		}
		if sum+over != h.Count() {
			return false
		}
		if len(raw) > 0 && (h.Min() != lo || h.Max() != hi) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Test-local registered counters, namespaced to the test. zeta is
// registered before alpha so registration order and name order differ.
var (
	setA     = MustRegister("test.set.a")
	setB     = MustRegister("test.set.b")
	setX     = MustRegister("test.set.x")
	setY     = MustRegister("test.set.y")
	setZeta  = MustRegister("test.set.zeta")
	setAlpha = MustRegister("test.set.alpha")
)

func TestSetCounters(t *testing.T) {
	var s Set
	s.Bump(setA, 1)
	s.Bump(setB, 2)
	s.Bump(setA, 3)
	if s.Get("test.set.a") != 4 || s.Get("test.set.b") != 2 || s.Get("missing") != 0 {
		t.Fatalf("counter values wrong: %s", s.String())
	}
	all := s.All()
	if len(all) != 2 || all[0].Name != "test.set.a" || all[1].Name != "test.set.b" {
		t.Fatalf("All() order wrong: %v", all)
	}
}

func TestSetMerge(t *testing.T) {
	var a, b Set
	a.Bump(setX, 1)
	b.Bump(setX, 2)
	b.Bump(setY, 5)
	a.Merge(&b)
	if a.Get("test.set.x") != 3 || a.Get("test.set.y") != 5 {
		t.Fatalf("merge wrong: %s", a.String())
	}
}

func TestSetAppendDeltas(t *testing.T) {
	a := MustRegister("test.deltas.a")
	var s Set
	s.Bump(a, 5)
	base := s.AppendValues(nil)
	b := MustRegister("test.deltas.b") // beyond the reading
	s.Bump(a, 2)
	s.Bump(b, 3)
	got := s.AppendDeltas(nil, base)
	if len(got) != 2 || got[0] != (Delta{ID: a, N: 2}) || got[1] != (Delta{ID: b, N: 3}) {
		t.Fatalf("deltas = %v, want a+2 b+3", got)
	}
	if d := s.AppendDeltas(nil, s.AppendValues(nil)); len(d) != 0 {
		t.Fatalf("deltas against a fresh reading = %v", d)
	}
}

func TestSetString(t *testing.T) {
	var s Set
	s.Bump(setZeta, 1)
	s.Bump(setAlpha, 2)
	if got := s.String(); got != "test.set.alpha=2 test.set.zeta=1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestResetMatchesNew: a used histogram and counter set equal new ones
// field for field after Reset, a reset set grows and reads as a new one,
// and a Clone shares nothing with its original.
func TestResetMatchesNew(t *testing.T) {
	h := NewHistogram(16)
	for v := range 40 {
		h.Add(v)
	}
	c := h.Clone()
	h.Reset()
	if d := resettest.Diff(NewHistogram(16), h); d != "" {
		t.Errorf("reset histogram differs from a new one at %s", d)
	}
	if c.Count() != 40 || c.Overflow() != 24 || c.Max() != 39 {
		t.Errorf("clone changed with its original: %s", c)
	}
	id := MustRegister("stats.test_reset")
	var s Set
	s.Bump(id, 3)
	s.Reset()
	if d := resettest.Diff(&Set{}, &s); d != "" {
		t.Errorf("reset set differs from a new one at %s", d)
	}
	s.Bump(id, 2)
	if s.Value(id) != 2 || len(s.All()) != 1 {
		t.Errorf("reset set reads %d (%v), want 2", s.Value(id), s.All())
	}
}
