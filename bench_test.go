package mflush

// Hot-path benchmarks: raw simulator speed (solo and gang) and the
// metrics update/scrape paths. `make bench` runs them; `make benchcmp`
// diffs them against bench/baseline.txt. The paper's figures are
// regenerated by cmd/mflushbench, not here.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per wall-clock second for the 4-core machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workload.ByName("8W3")
	const cycles = 20000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Options{
			Workload: w, Policy: sim.SpecMFLUSH,
			Cycles: cycles, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles*b.N)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkGangCyclesPerSec measures aggregate gang throughput:
// simulated cycles per wall-clock second summed over a width-4 policy
// sweep (the four paper policies over one workload and seed) run as one
// lockstep GangSession. Compare against BenchmarkSimulatorThroughput
// × width for the solo aggregate: gang gains come from shared
// instruction synthesis and prewarm planning on any machine, plus
// member-parallel stepping when GOMAXPROCS allows.
func BenchmarkGangCyclesPerSec(b *testing.B) {
	w, _ := workload.ByName("8W3")
	const cycles = 20000
	policies := []sim.PolicySpec{sim.SpecICOUNT, sim.SpecFlushNS, sim.SpecFlushS(30), sim.SpecMFLUSH}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := make([]sim.Options, len(policies))
		for m, p := range policies {
			opts[m] = sim.Options{
				Workload: w, Policy: p,
				Cycles: cycles, Seed: uint64(i + 1),
			}
		}
		if _, err := sim.RunGang(opts); err != nil {
			b.Fatal(err)
		}
	}
	agg := float64(cycles) * float64(len(policies)) * float64(b.N)
	b.ReportMetric(agg/b.Elapsed().Seconds(), "sim_cycles/s")
	b.ReportMetric(float64(len(policies)), "gang_width")
}

// BenchmarkSingleCoreSim measures the single-core configuration.
func BenchmarkSingleCoreSim(b *testing.B) {
	w, _ := workload.ByName("2W1")
	const cycles = 20000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Options{
			Workload: w, Policy: sim.SpecICOUNT,
			Cycles: cycles, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles*b.N)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkMetricsUpdate measures the per-sample cost of the metric
// update paths a running simulation hits — a counter bump, a gauge set
// and a histogram observation. It must stay allocation-free: updates
// run on simulating goroutines at interval-sample rate.
func BenchmarkMetricsUpdate(b *testing.B) {
	r := metrics.NewRegistry()
	c := r.Counter("mflush_bench_events_total", "bench")
	g := r.Gauge("mflush_bench_depth", "bench")
	h := r.Histogram("mflush_bench_latency_seconds", "bench", metrics.DefBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i%1000) / 1e6)
	}
}

// BenchmarkMetricsScrape measures a full /metrics exposition pass over
// a registry the size of the daemon's (a few dozen families, labeled
// children, histograms). The write path reuses one scratch buffer, so
// allocations must stay O(1) — independent of scrape count and family
// count — and a scrape must stay cheap enough to run every few seconds
// against a live fleet.
func BenchmarkMetricsScrape(b *testing.B) {
	r := metrics.NewRegistry()
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("mflush_bench_family_%02d", i)
		switch i % 3 {
		case 0:
			r.Counter(name+"_total", "bench").Add(uint64(i))
		case 1:
			v := r.GaugeVec(name, "bench", "worker")
			for j := 0; j < 4; j++ {
				v.WithLabelValues(fmt.Sprintf("w%d", j)).Set(float64(j))
			}
		default:
			h := r.Histogram(name+"_seconds", "bench", metrics.DefBuckets)
			for j := 0; j < 100; j++ {
				h.Observe(float64(j) / 1e3)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
