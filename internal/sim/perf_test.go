package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestCycleLoopAllocBudget guards the zero-allocation cycle loop: after
// the recycling pools warm up, the steady-state simulation must stay
// under 0.05 heap allocations per simulated cycle (it measures ~0.01; the
// seed code spent ~13). The bound is tight enough that one allocation per
// wakeup or per issued uop fails it. Regressions here mean a pool, a
// scratch buffer or a wakeup list stopped being reused.
func TestCycleLoopAllocBudget(t *testing.T) {
	w, _ := workload.ByName("8W3")
	chip, err := buildChip(Options{Workload: w, Policy: SpecMFLUSH, Cycles: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools: free lists, wheel buckets, bus buffers and issue
	// queue slots all reach steady capacity within a few thousand cycles.
	chip.Run(20000)

	const cycles = 20000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chip.Run(cycles)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perCycle := float64(allocs) / float64(cycles)
	t.Logf("steady state: %d allocs over %d cycles (%.4f allocs/cycle)",
		allocs, cycles, perCycle)
	if perCycle > 0.05 {
		t.Fatalf("cycle loop allocates %.3f objects/cycle, budget is 0.05", perCycle)
	}
}

// TestJobAllocBudget guards machine reuse: once a warm-up job has left a
// machine in the pool, a sweep-sized job (4W3, 10k warm-up and 5k
// measured cycles) runs on it and allocates under 64 KiB. It measures
// about 20-40 KiB, 8 KiB of it the Result's copy of the hit-latency
// histogram; building a new machine for every job allocated ~750 KiB.
// A garbage collection between the jobs frees the pooled machine, so the
// best of three jobs counts.
func TestJobAllocBudget(t *testing.T) {
	w, _ := workload.ByName("4W3")
	opt := Options{Workload: w, Policy: SpecMFLUSH, Warmup: 10000, Cycles: 5000, Seed: 1}
	if _, err := Run(opt); err != nil {
		t.Fatal(err)
	}
	best := uint64(math.MaxUint64)
	for i := range 3 {
		opt.Seed = uint64(2 + i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		t.Logf("job %d: %d bytes in %d allocations", i, after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= 64<<10 {
		t.Fatalf("a job allocated at least %d bytes, budget is 64 KiB", best)
	}
}

// fingerprint flattens every externally observable metric of a Result.
func fingerprint(r *Result) string {
	return fmt.Sprintf("ipc=%.12f committed=%v percore=%v flushes=%d wasted=%.9f flushed=%d hitlat=%s counters=%s",
		r.IPC, r.Committed, r.PerCore, r.Flushes, r.WastedEnergy(),
		r.Energy.FlushedTotal(), r.HitLatency.String(), r.Counters.String())
}

// TestRecyclingDeterminism runs identical Options twice across the
// policies that stress the uop/request/LoadInfo recycling differently
// (flush-heavy MFLUSH, squash-heavy FLUSH-S, baseline ICOUNT) and demands
// bit-identical results. Stale pool state would show up here as a
// divergence between the first and second run.
func TestRecyclingDeterminism(t *testing.T) {
	w, _ := workload.ByName("8W3")
	for _, spec := range []PolicySpec{SpecICOUNT, SpecFlushS(30), SpecFlushNS, SpecMFLUSH} {
		opt := Options{Workload: w, Policy: spec, Warmup: 8000, Cycles: 8000, Seed: 11}
		a := runOrDie(t, opt)
		b := runOrDie(t, opt)
		fa, fb := fingerprint(a), fingerprint(b)
		if fa != fb {
			t.Errorf("%s: nondeterministic result:\n  run1: %s\n  run2: %s", spec, fa, fb)
		}
	}
}
