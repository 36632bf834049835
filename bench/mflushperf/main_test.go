package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// toyRun runs one workload at toy scale: cycle budgets cut fiftyfold,
// a fraction of a second of measurement, one set-up.
func toyRun(t *testing.T, name string, trace bool, p pins) (result, string) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	var out bytes.Buffer
	res, err := execute(runConfig{
		Workload: w, Seed: 1, Seconds: 0.2, Trace: trace, WorkDir: t.TempDir(),
		MinOps: digestOps, SetupReps: 1, Pins: p, Shrink: 50, Out: &out,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	if last.Attempted != res.Attempted || last.Failed != res.Failed || len(last.Metrics) != len(res.Metrics) {
		t.Fatalf("%s: printed result %+v differs from the returned one %+v", name, last, res)
	}
	return res, out.String()
}

func loadBenchmark(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkDef
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsAtToyScale(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := toyRun(t, w.name, false, pins{})
			if !res.Correct || res.Failed != 0 || exitCode(res) != 0 {
				t.Fatalf("run failed:\n%s", out)
			}
			for _, m := range b.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if m.Name == "latency_p90_ms" {
					// Toy runs take fewer than 100 samples: no p90.
					if ok {
						t.Errorf("p90 reported from too few samples")
					}
					continue
				}
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}

func TestTracedDigestEqualsUntraced(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := toyRun(t, w.name, true, pins{})
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run failed:\n%s", out)
			}
			if !strings.Contains(out, "check traced outputs_digest equals the untraced one") {
				t.Fatalf("traced digest not checked:\n%s", out)
			}
			if len(res.Metrics) != len(b.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d per-layer ones", len(res.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s = %+v, want a value in %s", m.Name, got, m.Unit)
				}
			}
			if res.Metrics["sim.step_ns_per_cycle"].Value <= 0 || res.Metrics["sim.run_ms"].Value <= 0 {
				t.Errorf("sim layer not timed: %+v", res.Metrics)
			}
		})
	}
}

func TestTamperedPinFailsTheRun(t *testing.T) {
	res, out := toyRun(t, "solo-ilp", false, pins{Seed: 1, Digests: map[string]string{"solo-ilp": "tampered"}})
	if res.Correct || res.Failed != res.Attempted || exitCode(res) == 0 {
		t.Fatalf("tampered pin gave correct=%v failed=%d/%d:\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
}

func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(p.Digests[w.name]) != 64 {
			t.Errorf("expected.json has no SHA-256 pin for %s", w.name)
		}
	}
}

func TestMetricNames(t *testing.T) {
	b := loadBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(b.PerLayer))
	}
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated metric name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("metric %s: bad unit %q", n, u)
		}
	}
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, mflushperf has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to mflushperf", w.Name)
		}
	}
}

func TestP90NeedsTenSamplesBeyondIt(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tailP90(xs); ok {
		t.Errorf("p90 reported from 99 samples")
	}
	xs = append(xs, 100)
	p90, ok := tailP90(xs)
	if !ok || p90 != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90 with ten samples beyond it", p90, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{[]float64{100, 100, 101, 99, 100, 100, 101, 99, 100, 100}, "unchanged"},
		{[]float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "regressed"},
		{[]float64{60, 140, 70, 130, 100, 95, 150, 55, 105, 100}, "unresolved"},
	} {
		if got, _ := verdict(parent, tc.change, true, 0.1); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.change, got, tc.want)
		}
	}
}
