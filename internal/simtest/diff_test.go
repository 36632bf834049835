package simtest

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// sweep builds the policy-sweep gang shape for one workload: shared
// (workload, seed), the four paper policies — identical streams in
// every member.
func sweep(t *testing.T, name string, seed, warmup, cycles uint64) []sim.Options {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	var opts []sim.Options
	for _, p := range []sim.PolicySpec{sim.SpecICOUNT, sim.SpecFlushNS, sim.SpecFlushS(30), sim.SpecMFLUSH} {
		opts = append(opts, sim.Options{Workload: w, Policy: p, Seed: seed, Warmup: warmup, Cycles: cycles})
	}
	return opts
}

// mixed builds a heterogeneous gang: different workloads, seeds and
// policies (so members share nothing but the lockstep), with interval
// sampling on to exercise the recorded-series comparison too.
func mixed(t *testing.T, width int, warmup, cycles uint64) []sim.Options {
	t.Helper()
	names := []string{"2W1", "2W3", "4W2", "2W5", "4W1"}
	policies := []sim.PolicySpec{sim.SpecMFLUSH, sim.SpecICOUNT, sim.SpecFlushS(30), sim.SpecFlushNS}
	var opts []sim.Options
	for i := 0; i < width; i++ {
		w, ok := workload.ByName(names[i%len(names)])
		if !ok {
			t.Fatalf("unknown workload %s", names[i%len(names)])
		}
		opts = append(opts, sim.Options{
			Workload: w,
			Policy:   policies[i%len(policies)],
			Seed:     uint64(i)*3 + 1,
			Warmup:   warmup,
			Cycles:   cycles,
			Interval: 1500,
		})
	}
	return opts
}

// TestDiffGangValidation pins the harness's own error surface.
func TestDiffGangValidation(t *testing.T) {
	if err := DiffGang(nil, DiffConfig{}); err == nil {
		t.Error("DiffGang(nil) = nil, want error")
	}
	w, _ := workload.ByName("2W1")
	if err := DiffGang([]sim.Options{{Workload: w, Policy: sim.SpecICOUNT}}, DiffConfig{}); err == nil {
		t.Error("DiffGang with zero budget = nil, want error")
	}
	uneven := []sim.Options{
		{Workload: w, Policy: sim.SpecICOUNT, Cycles: 1000},
		{Workload: w, Policy: sim.SpecICOUNT, Cycles: 2000},
	}
	if err := DiffGang(uneven, DiffConfig{}); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("DiffGang with uneven windows: %v, want window error", err)
	}
}

// TestDiffGangWidths proves gang = solo across gang widths, including
// the degenerate width-1 gang, on the heterogeneous shape.
func TestDiffGangWidths(t *testing.T) {
	for _, width := range []int{1, 2, 7} {
		opts := mixed(t, width, 2000, 8000)
		if err := DiffGang(opts, DiffConfig{Chunk: 1000}); err != nil {
			t.Errorf("width %d: %v", width, err)
		}
	}
}

// TestDiffGangChunks proves the lockstep chunking is observationally
// invariant: stepping cycle by cycle, in awkward primes, in large
// chunks, or all at once yields identical members. Chunk 1 crosses the
// probe machinery on every cycle, so this also re-proves probes never
// perturb the machine.
func TestDiffGangChunks(t *testing.T) {
	for _, chunk := range []uint64{1, 7, 1000, 0} {
		c := chunk
		opts := sweep(t, "2W3", 2, 500, 2500)
		if err := DiffGang(opts, DiffConfig{Chunk: c}); err != nil {
			t.Errorf("chunk %d: %v", c, err)
		}
	}
}

// TestGangMemberPermutation proves member order is immaterial: running
// the same variant set in permuted orders yields each variant the same
// bytes, so gang grouping upstream may order jobs freely.
func TestGangMemberPermutation(t *testing.T) {
	opts := sweep(t, "2W1", 4, 1000, 6000)
	base, err := sim.RunGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		shuffled := make([]sim.Options, len(opts))
		for i, j := range perm {
			shuffled[i] = opts[j]
		}
		results, err := sim.RunGang(shuffled)
		if err != nil {
			t.Fatalf("permutation %v: %v", perm, err)
		}
		for i, j := range perm {
			if g, w := Fingerprint(results[i]), Fingerprint(base[j]); g != w {
				t.Errorf("permutation %v: member %d (policy %s) diverged from unpermuted run\n got: %s\nwant: %s",
					perm, i, shuffled[i].Policy, g, w)
			}
		}
	}
}
