package stats

import "math"

// Variance returns the sample variance of xs (n-1 denominator), 0 for
// fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs. math.Sqrt is
// correctly rounded per IEEE 754, so it is bit-identical across
// platforms and safe for deterministic output.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// tTable holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom.
var tTable = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit returns the two-sided 95% Student-t critical value: exact table
// entries through df=30, then the first-order Cornish-Fisher expansion
// t ≈ z + (z³+z)/(4·df), which stays within ~0.2% of the true quantile
// (df=31: 2.0365 vs 2.0395) and decays smoothly to z — no discontinuous
// interval shrink when a seed is added past the table.
func tCrit(df int) float64 {
	if df <= len(tTable) {
		return tTable[df-1]
	}
	const z = 1.959964
	return z + (z*z*z+z)/(4*float64(df))
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// of xs, using the Student-t critical value for the sample size. Campaign
// cells report mean ± CI95 across seeds. Fewer than two samples have no
// dispersion estimate and return 0.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return tCrit(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}
