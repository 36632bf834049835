package sim

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

func TestTweakIsApplied(t *testing.T) {
	w, _ := workload.ByName("2W3")
	base := runOrDie(t, Options{Workload: w, Policy: SpecICOUNT,
		Warmup: 20000, Cycles: 20000, Seed: 1})
	// Starving the machine of MSHRs must visibly change behaviour.
	tiny := runOrDie(t, Options{Workload: w, Policy: SpecICOUNT,
		Warmup: 20000, Cycles: 20000, Seed: 1,
		Tweak: func(c *config.Config) { c.Core.MSHREntries = 1 }})
	if tiny.IPC >= base.IPC {
		t.Fatalf("1-entry MSHR IPC %.3f not below default %.3f", tiny.IPC, base.IPC)
	}
	if tiny.Counters.Get("mshr.full_retries") == 0 {
		t.Fatal("1-entry MSHR never filled")
	}
}

func TestTweakValidationFailure(t *testing.T) {
	w, _ := workload.ByName("2W1")
	_, err := Run(Options{Workload: w, Policy: SpecICOUNT, Cycles: 1000,
		Tweak: func(c *config.Config) { c.Core.IntQueue = 0 }})
	if err == nil {
		t.Fatal("invalid tweaked config accepted")
	}
}

// TestTweakAssocBoundIsAdmissionError: an L2 wider than the cache's
// 16-way limit is a config error from Run, never a panic while the chip
// is built.
func TestTweakAssocBoundIsAdmissionError(t *testing.T) {
	w, _ := workload.ByName("2W1")
	_, err := Run(Options{Workload: w, Policy: SpecICOUNT, Cycles: 1000,
		Tweak: func(c *config.Config) {
			c.Mem.L2.Assoc = 17
			c.Mem.L2.SizeBytes = c.Mem.L2.LineBytes * 17 * c.Mem.L2.Banks * 256
		}})
	if err == nil || !strings.HasPrefix(err.Error(), "sim: tweaked config invalid") ||
		!strings.Contains(err.Error(), "16-way limit") {
		t.Fatalf("17-way L2 tweak: err = %v, want a tweaked-config error naming the 16-way limit", err)
	}
}

func TestSeedChangesWorkloadNotShape(t *testing.T) {
	// Different seeds give different streams (different absolute IPC)
	// but the policy ordering on a strongly memory-bound pair holds.
	w, _ := workload.ByName("2W3")
	for _, seed := range []uint64{1, 2, 3} {
		ic := runOrDie(t, Options{Workload: w, Policy: SpecICOUNT,
			Warmup: 60000, Cycles: 60000, Seed: seed})
		fl := runOrDie(t, Options{Workload: w, Policy: SpecFlushS(30),
			Warmup: 60000, Cycles: 60000, Seed: seed})
		if fl.IPC <= ic.IPC {
			t.Errorf("seed %d: FLUSH-S30 (%.3f) not above ICOUNT (%.3f) on mcf+gzip",
				seed, fl.IPC, ic.IPC)
		}
	}
}

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	w, _ := workload.ByName("2W1")
	warm := runOrDie(t, Options{Workload: w, Policy: SpecICOUNT,
		Warmup: 60000, Cycles: 30000, Seed: 1})
	cold := runOrDie(t, Options{Workload: w, Policy: SpecICOUNT,
		Warmup: 0, Cycles: 30000, Seed: 1})
	// Cold-start measurement includes TLB walks and cache fills, so the
	// warmed run must report clearly higher throughput.
	if warm.IPC <= cold.IPC {
		t.Fatalf("warmed IPC %.3f not above cold %.3f", warm.IPC, cold.IPC)
	}
}
