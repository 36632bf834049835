package cmp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/synth"
	"repro/internal/trace"
)

// sleepPolicies names the policies the sleep tests cover, with their
// constructors for one core of cfg.
var sleepPolicies = []struct {
	name  string
	build func(cfg *config.Config) *policy.Policy
}{
	{"ICOUNT", func(*config.Config) *policy.Policy { return policy.NewICOUNT() }},
	{"FLUSH-S30", func(cfg *config.Config) *policy.Policy { return policy.NewFlushS(cfg.Core.ThreadsPerCore, 30) }},
	{"FLUSH-NS", func(cfg *config.Config) *policy.Policy { return policy.NewFlushNS(cfg.Core.ThreadsPerCore) }},
	{"STALL-S30", func(cfg *config.Config) *policy.Policy { return policy.NewStall(cfg.Core.ThreadsPerCore, 30) }},
	{"MFLUSH", func(cfg *config.Config) *policy.Policy { return policy.NewMFLUSH(cfg, 1) }},
	{"MFLUSH-H4", func(cfg *config.Config) *policy.Policy { return policy.NewMFLUSH(cfg, 4) }},
}

// sleepProfiles mixes memory-bound and compute-bound threads, so cores
// alternate between long sleeps behind L2 misses and busy stretches.
var sleepProfiles = []string{"mcf", "gzip", "art", "eon", "swim", "vpr", "equake", "crafty"}

// sleepChip builds a cold chip (no L2 prewarm, so early misses abound).
// A tight chip has a 2-entry MSHR file and a 900-cycle TLB walk, which
// exercise the issue stage's retry delays, and core 0's first thread
// replays a recorded stream in which every third load carries a
// far-memory MissLatency override, which exercises the L2's memFar path.
func sleepChip(t testing.TB, cores, pol int, seed uint64, tight, lockstep bool) *Chip {
	t.Helper()
	cfg := config.Default(cores)
	if tight {
		cfg.Core.MSHREntries = 2
		cfg.Mem.TLBMissLatency = 900
	}
	var policies []*policy.Policy
	var sources [][]trace.Source
	var bases [][]uint64
	for c := 0; c < cores; c++ {
		policies = append(policies, sleepPolicies[pol].build(&cfg))
		var srcs []trace.Source
		var bs []uint64
		for th := 0; th < cfg.Core.ThreadsPerCore; th++ {
			g := uint64(c*cfg.Core.ThreadsPerCore + th)
			base := (g + 1) << 34
			prof, ok := synth.ByName(sleepProfiles[(int(g)+int(seed))%len(sleepProfiles)])
			if !ok {
				t.Fatal("unknown profile")
			}
			gen := synth.NewGenerator(prof, seed*16+g+1, base)
			var src trace.Source = gen
			if tight && g == 0 {
				src = trace.NewSliceSource(farMisses(gen, 20000))
			}
			srcs = append(srcs, src)
			bs = append(bs, synth.DataBase(base))
		}
		sources = append(sources, srcs)
		bases = append(bases, bs)
	}
	ch, err := New(cfg, policies, sources, bases)
	if err != nil {
		t.Fatal(err)
	}
	ch.lockstep = lockstep
	return ch
}

// farMisses records n instructions from src, giving every third load a
// far-memory miss latency (alternately 700 and 1300 cycles, so far
// completions leave the memFar list out of insertion order).
func farMisses(src trace.Source, n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	loads := 0
	for i := range insts {
		src.Next(&insts[i])
		if insts[i].Class == isa.ClassLoad {
			if loads++; loads%3 == 0 {
				insts[i].MissLatency = 700 + 600*uint32(loads%2)
			}
		}
	}
	return insts
}

// sleepState is everything a run measures, read from a settled chip.
type sleepState struct {
	now       uint64
	counters  [][]uint64
	committed [][]uint64
	threads   [][]pipeline.ThreadInfo
	telemetry [][4]uint64
	l2        []uint64
}

func readSleepState(ch *Chip) sleepState {
	st := sleepState{now: ch.Now(), l2: ch.L2().Counters().AppendValues(nil)}
	for _, c := range ch.Cores() {
		st.counters = append(st.counters, c.Stats().AppendValues(nil))
		st.committed = append(st.committed, c.AppendCommitted(nil))
		st.threads = append(st.threads, c.Threads())
		var tel [4]uint64
		tel[0], tel[1], tel[2], tel[3] = c.Policy().Telemetry()
		st.telemetry = append(st.telemetry, tel)
	}
	return st
}

// equalSleepState compares two readings; counter arrays compare with
// trailing zeros ignored (a set grows its array on first use).
func equalSleepState(a, b sleepState) bool {
	trim := func(v []uint64) []uint64 {
		for len(v) > 0 && v[len(v)-1] == 0 {
			v = v[:len(v)-1]
		}
		return v
	}
	if a.now != b.now || !slices.Equal(trim(a.l2), trim(b.l2)) ||
		!reflect.DeepEqual(a.committed, b.committed) || !reflect.DeepEqual(a.threads, b.threads) ||
		!reflect.DeepEqual(a.telemetry, b.telemetry) || len(a.counters) != len(b.counters) {
		return false
	}
	for i := range a.counters {
		if !slices.Equal(trim(a.counters[i]), trim(b.counters[i])) {
			return false
		}
	}
	return true
}

// resetMeasurement excludes warm-up as sim.Session.ResetMeasurement does.
func resetMeasurement(ch *Chip) {
	for _, c := range ch.Cores() {
		c.ResetMeasurement()
	}
	ch.L2().ResetStats()
}

// compareSleep steps an event-horizon chip and a lock-step chip of the
// same machine through a warm-up, a measurement reset and a measured
// window, in chunks of chunk cycles, and fails at the first chunk
// boundary where any measurement differs, or if the final histograms,
// energy accounts or invariants differ.
func compareSleep(t testing.TB, cores, pol int, seed uint64, tight bool, warmup, cycles, chunk uint64) {
	t.Helper()
	sleepy := sleepChip(t, cores, pol, seed, tight, false)
	ref := sleepChip(t, cores, pol, seed, tight, true)
	step := func(n uint64) {
		for n > 0 {
			k := min(n, chunk)
			sleepy.Run(k)
			ref.Run(k)
			n -= k
			if a, b := readSleepState(sleepy), readSleepState(ref); !equalSleepState(a, b) {
				t.Fatalf("cycle %d: event-horizon chip diverged from lock-step:\n sleep %+v\n  lock %+v", b.now, a, b)
			}
		}
	}
	step(warmup)
	resetMeasurement(sleepy)
	resetMeasurement(ref)
	step(cycles)
	for i, c := range sleepy.Cores() {
		if !reflect.DeepEqual(c.Energy(), ref.Cores()[i].Energy()) {
			t.Fatalf("core %d energy: %+v vs lock-step %+v", i, *c.Energy(), *ref.Cores()[i].Energy())
		}
	}
	if !reflect.DeepEqual(sleepy.L2().HitLatency(), ref.L2().HitLatency()) ||
		!reflect.DeepEqual(sleepy.L2().MissLatency(), ref.L2().MissLatency()) {
		t.Fatalf("L2 latency histograms: hit %v miss %v vs lock-step hit %v miss %v",
			sleepy.L2().HitLatency(), sleepy.L2().MissLatency(), ref.L2().HitLatency(), ref.L2().MissLatency())
	}
	if err := sleepy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSleepMatchesLockstep proves event-horizon stepping bit-identical to
// ticking every core and the L2 on every cycle, across core counts,
// every policy family, retry-heavy and far-memory machines, and the
// chunkings sessions step in.
func TestSleepMatchesLockstep(t *testing.T) {
	const warmup, cycles = 1500, 3000
	for _, cores := range []int{1, 2, 4} {
		for pol := range sleepPolicies {
			for _, tight := range []bool{false, true} {
				for _, chunk := range []uint64{1, 7, warmup + cycles} {
					if chunk == 1 && testing.Short() {
						continue // reads every measurement on every cycle
					}
					name := fmt.Sprintf("%dcore/%s/tight=%v/chunk=%d", cores, sleepPolicies[pol].name, tight, chunk)
					t.Run(name, func(t *testing.T) {
						compareSleep(t, cores, pol, uint64(cores+pol), tight, warmup, cycles, chunk)
					})
				}
			}
		}
	}
}

// TestChipSleeps guards the optimisation itself: on a cold 4-core chip
// the clock must jump, and the cores must sleep after a good share of
// the steps.
func TestChipSleeps(t *testing.T) {
	ch := sleepChip(t, 4, 0, 1, false, false)
	steps, asleep := 0, 0
	for ch.Now() < 20000 {
		if next := ch.step(); next > ch.Now() {
			ch.now = next
		}
		steps++
		for _, c := range ch.Cores() {
			if c.WakeAt() != 0 {
				asleep++
			}
		}
	}
	if steps >= 20000 {
		t.Fatalf("clock never jumped: %d steps for %d cycles", steps, ch.Now())
	}
	if coreSteps := steps * len(ch.Cores()); asleep < coreSteps/4 {
		t.Fatalf("cores asleep after %d of %d core-steps", asleep, coreSteps)
	}
	ch.settle()
	if err := ch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSleep compares event-horizon stepping with lock-step over fuzzed
// policies, core counts, seeds and chunk sizes.
func FuzzSleep(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint64(1), uint16(1), false)
	f.Add(uint8(2), uint8(2), uint64(7), uint16(7), true)
	f.Add(uint8(4), uint8(4), uint64(3), uint16(500), false)
	f.Add(uint8(5), uint8(3), uint64(9), uint16(13), true)
	f.Fuzz(func(t *testing.T, pol, cores uint8, seed uint64, chunk uint16, tight bool) {
		compareSleep(t, 1+int(cores)%4, int(pol)%len(sleepPolicies), seed%1000, tight,
			700, 1300, 1+uint64(chunk)%2000)
	})
}
