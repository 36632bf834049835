package cmp

import (
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/resettest"
	"repro/internal/synth"
	"repro/internal/trace"
)

// chipInputs builds MFLUSH policies and synthetic sources for every
// context of cfg, the streams drawn from seed.
func chipInputs(cfg *config.Config, seed uint64) ([]*policy.Policy, [][]trace.Source, [][]uint64) {
	var policies []*policy.Policy
	var sources [][]trace.Source
	var bases [][]uint64
	for c := 0; c < cfg.Cores; c++ {
		policies = append(policies, policy.NewMFLUSH(cfg, 1))
		var srcs []trace.Source
		var bs []uint64
		for th := 0; th < cfg.Core.ThreadsPerCore; th++ {
			g := c*cfg.Core.ThreadsPerCore + th
			prof, _ := synth.ByName(sleepProfiles[(g+int(seed))%len(sleepProfiles)])
			base := uint64(g+1) << 34
			srcs = append(srcs, synth.NewGenerator(prof, seed*16+uint64(g), base))
			bs = append(bs, synth.DataBase(base))
		}
		sources = append(sources, srcs)
		bases = append(bases, bs)
	}
	return policies, sources, bases
}

// TestChipResetMatchesNew: a chip stopped mid-run and Reset for another
// simulation equals a chip New builds for it, field for field but for the
// cores' free lists, and runs it to the same totals and histograms. A
// reset to a different machine panics.
func TestChipResetMatchesNew(t *testing.T) {
	for _, tight := range []bool{false, true} {
		cfg := config.Default(2)
		if tight {
			cfg.Core.MSHREntries = 2
			cfg.Mem.TLBMissLatency = 900
		}
		p, s, b := chipInputs(&cfg, 1)
		used, err := New(cfg, p, s, b)
		if err != nil {
			t.Fatal(err)
		}
		used.Run(5000)
		cfg.Seed = 99
		p, s, b = chipInputs(&cfg, 2)
		if err := used.Reset(cfg, p, s, b); err != nil {
			t.Fatal(err)
		}
		p, s, b = chipInputs(&cfg, 2)
		fresh, err := New(cfg, p, s, b)
		if err != nil {
			t.Fatal(err)
		}
		if d := resettest.Diff(fresh, used, "uopFree", "loadFree", "reqPool"); d != "" {
			t.Fatalf("tight=%t: reset chip differs from a new one at %s", tight, d)
		}
		var a, want Totals
		for range 5 {
			used.Run(1000)
			fresh.Run(1000)
			used.ReadTotals(&a)
			fresh.ReadTotals(&want)
			if a != want {
				t.Fatalf("tight=%t: cycle %d: reset chip totals %+v, new chip %+v", tight, used.Now(), a, want)
			}
		}
		if d := resettest.Diff(fresh.L2().HitLatency(), used.L2().HitLatency()); d != "" {
			t.Fatalf("tight=%t: hit-latency histograms differ at %s", tight, d)
		}
		other := config.Default(4)
		p, s, b = chipInputs(&other, 3)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("tight=%t: reset to a 4-core machine did not panic", tight)
				}
			}()
			used.Reset(other, p, s, b)
		}()
	}
}
