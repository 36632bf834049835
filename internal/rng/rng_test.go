package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	saw := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		saw[r.Uint64()] = true
	}
	if len(saw) < 100 {
		t.Fatalf("seed 0 produced repeats: %d unique of 100", len(saw))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Fatalf("bucket %d count %d deviates >8%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolExtremes(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	const p, draws = 0.25, 200000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Geometric(p, 0)
	}
	mean := float64(sum) / draws
	want := (1 - p) / p // = 3
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean %v, want ~%v", mean, want)
	}
}

func TestGeometricCap(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		if v := r.Geometric(0.01, 5); v > 5 {
			t.Fatalf("cap violated: %d", v)
		}
	}
	if v := r.Geometric(0, 7); v != 7 {
		t.Fatalf("p=0 should return cap, got %d", v)
	}
	if v := r.Geometric(1, 7); v != 0 {
		t.Fatalf("p=1 should return 0, got %d", v)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 100 {
			t.Fatalf("zipf sample out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 should be roughly twice as frequent as item 1 (1/1 vs 1/2).
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("zipf skew ratio %v, want ~2", ratio)
	}
	// The head should dominate the tail.
	if counts[0] < counts[99]*10 {
		t.Fatalf("zipf head %d not dominating tail %d", counts[0], counts[99])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(29)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	want := float64(draws) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Fatalf("s=0 bucket %d count %d deviates from uniform %f", i, c, want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for NewZipf(%d, %v)", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}

func TestInternalMathHelpers(t *testing.T) {
	cases := []struct{ x, s, want float64 }{
		{2, 1, 2},
		{2, 2, 4},
		{10, 1.2, 15.848931924611133},
		{3, 0.5, 1.7320508075688772},
		{1, 5, 1},
	}
	for _, c := range cases {
		got := powF(c.x, c.s)
		if math.Abs(got-c.want)/c.want > 1e-6 {
			t.Errorf("powF(%v,%v)=%v want %v", c.x, c.s, got, c.want)
		}
	}
	for _, x := range []float64{0.1, 0.5, 1, 2, 10, 1000} {
		if got, want := lnF(x), math.Log(x); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("lnF(%v)=%v want %v", x, got, want)
		}
	}
	for _, y := range []float64{-5, -1, 0, 0.5, 1, 5, 20} {
		if got, want := expF(y), math.Exp(y); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("expF(%v)=%v want %v", y, got, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkZipfSample(b *testing.B) {
	r := New(1)
	z := NewZipf(4096, 1.1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = z.Sample(r)
	}
	_ = sink
}
