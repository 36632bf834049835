package cmp

import (
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/synth"
	"repro/internal/trace"
)

func buildChip(t *testing.T, cores int) *Chip {
	t.Helper()
	cfg := config.Default(cores)
	var policies []*policy.Policy
	var sources [][]trace.Source
	var bases [][]uint64
	prof, _ := synth.ByName("gzip")
	for c := 0; c < cores; c++ {
		policies = append(policies, policy.NewICOUNT())
		var srcs []trace.Source
		var bs []uint64
		for th := 0; th < cfg.Core.ThreadsPerCore; th++ {
			g := uint64(c*cfg.Core.ThreadsPerCore + th)
			base := (g + 1) << 34
			srcs = append(srcs, synth.NewGenerator(prof, g+1, base))
			bs = append(bs, synth.DataBase(base))
		}
		sources = append(sources, srcs)
		bases = append(bases, bs)
	}
	chip, err := New(cfg, policies, sources, bases)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestChipRunsAndProgresses(t *testing.T) {
	chip := buildChip(t, 2)
	chip.Run(30000)
	if chip.Now() != 30000 {
		t.Fatalf("now = %d", chip.Now())
	}
	total := uint64(0)
	for _, c := range chip.Cores() {
		for _, n := range c.AppendCommitted(nil) {
			total += n
		}
	}
	if total == 0 {
		t.Fatal("no instructions committed")
	}
	if err := chip.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if chip.L2().Counters().Get("l2.requests") == 0 {
		t.Fatal("no shared-L2 traffic")
	}
}

func TestChipRejectsMismatchedInputs(t *testing.T) {
	cfg := config.Default(2)
	if _, err := New(cfg, nil, nil, nil); err == nil {
		t.Fatal("mismatched input lengths accepted")
	}
	bad := cfg
	bad.Cores = 0
	if _, err := New(bad, nil, nil, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestChipDeterminism(t *testing.T) {
	run := func() uint64 {
		chip := buildChip(t, 2)
		chip.Run(20000)
		total := uint64(0)
		for _, c := range chip.Cores() {
			for _, n := range c.AppendCommitted(nil) {
				total += n
			}
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic chips: %d vs %d", a, b)
	}
}

func TestResponsesRoutedToRightCore(t *testing.T) {
	// Each thread has a disjoint address space, so every thread making
	// progress proves responses reach the right core (a misrouted fill
	// would leave some thread starved on its icache/dcache waits).
	chip := buildChip(t, 4)
	chip.Run(60000)
	for ci, c := range chip.Cores() {
		for ti, n := range c.AppendCommitted(nil) {
			if n == 0 {
				t.Errorf("core %d thread %d starved", ci, ti)
			}
		}
	}
}
