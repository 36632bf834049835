package sim

import (
	"fmt"
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
