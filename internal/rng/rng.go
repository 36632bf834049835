// Package rng provides a small, fast, deterministic pseudo-random number
// generator and the sampling distributions used by the synthetic workload
// generator.
//
// The simulator must be bit-reproducible across runs and platforms for a
// given seed, so it does not depend on math/rand (whose stream is only
// guaranteed stable per Go release for the top-level functions). The core
// generator is xoshiro256**, seeded through splitmix64 as recommended by its
// authors.
package rng

import "math/bits"

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; use New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the 64-bit state and returns the next output. It is
// used only for seeding.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given value. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success, so the
// mean is (1-p)/p. Samples are capped at cap to bound pathological draws;
// pass cap <= 0 for no cap.
func (r *Rand) Geometric(p float64, cap int) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		if cap > 0 {
			return cap
		}
		panic("rng: Geometric with p<=0 and no cap")
	}
	n := 0
	for !r.Bool(p) {
		n++
		if cap > 0 && n >= cap {
			return cap
		}
	}
	return n
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. It uses inverse-CDF sampling over a precomputed table, so
// construct one Zipf per distribution and reuse it.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s. It panics if
// n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("rng: NewZipf with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / powF(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// N returns the number of items in the sampler's domain.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one item index using r as the randomness source.
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// powF computes x^s for x >= 1 and s >= 0 without importing math, which
// keeps this package dependency-free. It uses exp(s*ln(x)) computed with a
// short series; accuracy of ~1e-9 is far beyond what workload synthesis
// needs.
func powF(x, s float64) float64 {
	if s == 0 || x == 1 {
		return 1
	}
	if s == 1 {
		return x
	}
	return expF(s * lnF(x))
}

// lnF computes the natural log via atanh series after range reduction by
// powers of 2.
func lnF(x float64) float64 {
	if x <= 0 {
		panic("rng: lnF domain")
	}
	const ln2 = 0.6931471805599453
	k := 0
	for x > 1.5 {
		x /= 2
		k++
	}
	for x < 0.75 {
		x *= 2
		k--
	}
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := 0.0
	term := t
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= t2
	}
	return 2*sum + float64(k)*ln2
}

// expF computes e^y with argument reduction and a Taylor series.
func expF(y float64) float64 {
	const ln2 = 0.6931471805599453
	neg := false
	if y < 0 {
		neg = true
		y = -y
	}
	k := int(y / ln2)
	r := y - float64(k)*ln2
	term := 1.0
	sum := 1.0
	for i := 1; i < 20; i++ {
		term *= r / float64(i)
		sum += term
	}
	for i := 0; i < k; i++ {
		sum *= 2
	}
	if neg {
		return 1 / sum
	}
	return sum
}
