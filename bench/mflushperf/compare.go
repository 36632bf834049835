package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkDef is the benchmark definition, BENCHMARK.json.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) (its default, exclusive
// method) computes them; xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict decides how side b (the change) compares with side a (the
// parent) on one metric: "improved" needs b to win at least nine tenths
// of the pairs and the medians to differ by more than a's quartile
// distance; "regressed" means b's median is worse than a's by more than
// the bound; a run-to-run spread wider than the bound leaves the metric
// "unresolved" unless every run of b is better than every run of a.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	better := func(x, y float64) bool {
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	n := min(len(a), len(b))
	won := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			won++
		}
	}
	share := float64(won) / float64(n)
	a1, a2, a3 := quartiles(a)
	_, b2, _ := quartiles(b)
	allBetter := true
	for _, y := range b {
		for _, x := range a {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	worse := (b2 - a2) / a2
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case 10*won >= 9*n && better(b2, a2) && math.Abs(b2-a2) > a3-a1:
		return "improved", share
	case worse > bound:
		return "regressed", share
	case max(spread(a), spread(b)) > bound && !allBetter:
		return "unresolved", share
	}
	return "unchanged", share
}

// compareFiles prints, for every workload and end-to-end metric, each
// side's median, quartiles and spread, the share of pairs side B won,
// and the verdict under BENCHMARK.json's bounds. Untraced runs are
// paired in file order within each workload.
func compareFiles(out io.Writer, benchPath, pathA, pathB string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	sides := make([]map[string][]record, 2)
	for k, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		sides[k] = make(map[string][]record)
		for _, r := range recs {
			if !r.Trace {
				sides[k][r.Workload] = append(sides[k][r.Workload], r)
			}
		}
	}
	fmt.Fprintf(out, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(out, "%-10s %-17s %7s  %-34s %-34s %6s  %s\n", "workload", "metric", "bound",
		"A median [q1 q3] spread", "B median [q1 q3] spread", "B won", "verdict")
	for _, w := range def.Workloads {
		ra, rb := sides[0][w.Name], sides[1][w.Name]
		if len(ra) < 2 || len(rb) < 2 {
			fmt.Fprintf(out, "%-10s (needs at least two runs on each side; have %d and %d)\n", w.Name, len(ra), len(rb))
			continue
		}
		for _, m := range def.EndToEnd {
			a, b := values(ra, m.Name), values(rb, m.Name)
			if len(a) < 2 || len(b) < 2 {
				fmt.Fprintf(out, "%-10s %-17s missing\n", w.Name, m.Name)
				continue
			}
			v, share := verdict(a, b, m.Better == "lower", m.Bound)
			fmt.Fprintf(out, "%-10s %-17s %7.3f  %-34s %-34s %5.0f%%  %s\n", w.Name, m.Name, m.Bound,
				summary(a), summary(b), 100*share, v)
		}
	}
	return nil
}

// values returns one metric of every record, in order.
func values(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %.3f", q2, q1, q3, spread(xs))
}
