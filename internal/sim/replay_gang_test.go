// Replay-path regression tests that need simtest.DiffGang, which
// imports sim — so they live in the external test package.

package sim_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/synth"
)

// recordStream captures n instructions of a benchmark exactly as a live
// run would synthesise them for thread slot g, optionally stamping a
// miss-latency override onto every k-th load to exercise the far-memory
// path.
func recordStream(t *testing.T, bench string, seed uint64, g, n int, overrideEvery int, lat uint32) []isa.Inst {
	t.Helper()
	prof, ok := synth.ByName(bench)
	if !ok {
		t.Fatalf("no benchmark %s", bench)
	}
	streamSeed, base := sim.ReplayStream(seed, g)
	gen := synth.NewGenerator(prof, streamSeed, base)
	out := make([]isa.Inst, n)
	loads := 0
	for i := range out {
		gen.Next(&out[i])
		if overrideEvery > 0 && out[i].Class == isa.ClassLoad {
			loads++
			if loads%overrideEvery == 0 {
				out[i].MissLatency = lat
			}
		}
	}
	return out
}

// TestReplayGangMatchesSolo freezes the satellite invariant: a gang
// whose members replay recorded traces — including traces with
// miss-latency overrides, and two members replaying the same trace
// under different policies — is bit-identical to running each member
// solo, reading slices rather than generators.
func TestReplayGangMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replay gang run")
	}
	plain := recordStream(t, "mcf", 7, 0, 40000, 0, 0)
	far := recordStream(t, "art", 7, 1, 40000, 3, 900)
	window := sim.Options{Warmup: 8000, Cycles: 12000, Seed: 7, Interval: 4000}

	mk := func(p sim.PolicySpec, traces ...[]isa.Inst) sim.Options {
		o := window
		o.Policy = p
		o.ThreadTraces = traces
		return o
	}
	opts := []sim.Options{
		mk(sim.SpecICOUNT, plain, far),
		mk(sim.SpecMFLUSH, plain, far), // same traces, different policy
		mk(sim.SpecICOUNT, far),
	}
	if err := simtest.DiffGang(opts, simtest.DiffConfig{Chunk: 2500}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCoreDerivation pins the core-count rules for replay runs:
// an explicit Options.Cores always wins, and when unset the derivation
// reads ThreadsPerCore from the tweaked configuration — deriving with
// the built-in default and tweaking afterwards is the bug this test
// retires.
func TestReplayCoreDerivation(t *testing.T) {
	traces := [][]isa.Inst{
		recordStream(t, "gzip", 1, 0, 20000, 0, 0),
		recordStream(t, "vpr", 1, 1, 20000, 0, 0),
	}
	window := sim.Options{Policy: sim.SpecICOUNT, ThreadTraces: traces,
		Warmup: 4000, Cycles: 4000, Seed: 1}

	// Default SMT degree is 2: two traces share one core.
	res, err := sim.Run(window)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 1 {
		t.Fatalf("2 traces, default tpc=2: got %d cores, want 1", len(res.PerCore))
	}

	// A Tweak narrowing ThreadsPerCore to 1 must be honoured by the
	// derivation: two traces now need two cores, not one core with a
	// rejected second context.
	single := window
	single.Tweak = func(c *config.Config) { c.Core.ThreadsPerCore = 1 }
	res, err = sim.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("2 traces, tweaked tpc=1: got %d cores, want 2", len(res.PerCore))
	}

	// Explicit Cores wins over any derivation.
	wide := window
	wide.Cores = 2
	res, err = sim.Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("explicit Cores=2: got %d cores, want 2", len(res.PerCore))
	}
}
