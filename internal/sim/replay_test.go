package sim

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/synth"
)

// record captures n instructions of a benchmark as a replayable trace.
func record(t *testing.T, bench string, seed, base uint64, n int) []isa.Inst {
	t.Helper()
	prof, ok := synth.ByName(bench)
	if !ok {
		t.Fatalf("no benchmark %s", bench)
	}
	g := synth.NewGenerator(prof, seed, base)
	out := make([]isa.Inst, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

// overrideMisses stamps a miss-latency override of lat cycles onto every
// third load of tr, in place, to exercise the far-memory path.
func overrideMisses(tr []isa.Inst, lat uint32) []isa.Inst {
	loads := 0
	for i := range tr {
		if tr[i].Class == isa.ClassLoad {
			loads++
			if loads%3 == 0 {
				tr[i].MissLatency = lat
			}
		}
	}
	return tr
}

func TestReplayTracesRun(t *testing.T) {
	traces := [][]isa.Inst{
		record(t, "mcf", 1, 1<<34, 50000),
		record(t, "gzip", 2, 2<<34, 50000),
	}
	res, err := Run(Options{
		Policy: SpecMFLUSH, ThreadTraces: traces,
		Warmup: 20000, Cycles: 20000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "replay-2" {
		t.Fatalf("workload name = %q", res.Workload)
	}
	if len(res.Committed) != 2 || res.Committed[0] == 0 || res.Committed[1] == 0 {
		t.Fatalf("replay starved a thread: %v", res.Committed)
	}
	if len(res.PerCore) != 1 {
		t.Fatalf("replay of 2 traces should use 1 core, got %d", len(res.PerCore))
	}
}

func TestReplayDeterminism(t *testing.T) {
	traces := [][]isa.Inst{record(t, "vpr", 3, 1<<34, 30000)}
	opt := Options{Policy: SpecICOUNT, ThreadTraces: traces,
		Warmup: 10000, Cycles: 10000}
	a, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.Counters.String() != b.Counters.String() {
		t.Fatal("replay nondeterministic")
	}
}

// TestReplayNameOverride guards the Options.Name plumbing: a replay run
// reports the supplied name instead of the synthetic replay-N.
func TestReplayNameOverride(t *testing.T) {
	traces := [][]isa.Inst{record(t, "mcf", 1, 1<<34, 20000)}
	res, err := Run(Options{
		Policy: SpecICOUNT, ThreadTraces: traces, Name: "mcf-trace",
		Warmup: 5000, Cycles: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mcf-trace" {
		t.Fatalf("workload name = %q, want the Name override", res.Workload)
	}
	if got := res.Summary().Workload; got != "mcf-trace" {
		t.Fatalf("summary workload = %q", got)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Run(Options{Policy: SpecICOUNT, Cycles: 1000,
		ThreadTraces: [][]isa.Inst{{}}}); err == nil {
		t.Fatal("empty trace accepted")
	}
	many := make([][]isa.Inst, 3)
	for i := range many {
		many[i] = record(t, "gzip", uint64(i+1), uint64(i+1)<<34, 1000)
	}
	if _, err := Run(Options{Policy: SpecICOUNT, Cycles: 1000, Cores: 1,
		ThreadTraces: many}); err == nil {
		t.Fatal("3 traces on 1 core accepted")
	}
}

// TestReplaySessionMatchesRun: replay runs — including traces with
// miss-latency overrides, and the same traces under two policies — step
// bit-identically through a Session in 2500-cycle chunks with a live
// recorder as through Run, interval samples included.
func TestReplaySessionMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chunked replay runs")
	}
	plain := record(t, "mcf", 7, 1<<34, 40000)
	far := overrideMisses(record(t, "art", 8, 2<<34, 40000), 900)
	window := Options{Warmup: 8000, Cycles: 12000, Seed: 7, Interval: 4000}
	cases := []struct {
		name   string
		policy PolicySpec
		traces [][]isa.Inst
	}{
		{"icount", SpecICOUNT, [][]isa.Inst{plain, far}},
		{"mflush", SpecMFLUSH, [][]isa.Inst{plain, far}},
		{"override-only", SpecICOUNT, [][]isa.Inst{far}},
	}
	for _, c := range cases {
		opt := window
		opt.Policy = c.policy
		opt.ThreadTraces = c.traces
		want, err := Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s, err := Open(opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stepChunks(s, opt.Warmup, 2500)
		s.ResetMeasurement()
		rec := &Recorder{}
		if err := s.Observe(rec.Probe(opt.Interval)); err != nil {
			t.Fatal(err)
		}
		stepChunks(s, opt.Cycles, 2500)
		got, err := s.Finish()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g, w := fingerprint(got), fingerprint(want); g != w {
			t.Errorf("%s: chunked session diverged from Run\n got: %s\nwant: %s", c.name, g, w)
		}
		if len(rec.Points) == 0 || !reflect.DeepEqual(rec.Points, want.Samples) {
			t.Errorf("%s: recorded samples diverged from Run's\n got: %+v\nwant: %+v", c.name, rec.Points, want.Samples)
		}
	}
}

// TestReplayCoreDerivation pins the core-count rules for replay runs:
// an explicit Options.Cores always wins, and when unset the derivation
// reads ThreadsPerCore from the tweaked configuration — deriving with
// the built-in default and tweaking afterwards is the bug this test
// retires.
func TestReplayCoreDerivation(t *testing.T) {
	traces := [][]isa.Inst{
		record(t, "gzip", 1, 1<<34, 20000),
		record(t, "vpr", 2, 2<<34, 20000),
	}
	window := Options{Policy: SpecICOUNT, ThreadTraces: traces,
		Warmup: 4000, Cycles: 4000, Seed: 1}

	// Default SMT degree is 2: two traces share one core.
	res, err := Run(window)
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
	res, err = Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("2 traces, tweaked tpc=1: got %d cores, want 2", len(res.PerCore))
	}

	// Explicit Cores wins over any derivation.
	wide := window
	wide.Cores = 2
	res, err = Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 2 {
		t.Fatalf("explicit Cores=2: got %d cores, want 2", len(res.PerCore))
	}
}
