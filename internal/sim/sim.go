// Package sim is the top-level simulation driver: it builds a chip for a
// workload and an IFetch policy, runs it for a fixed cycle budget (after a
// warm-up period excluded from measurement, as trace-driven studies do),
// and collects the metrics the paper's figures report.
package sim

import (
	"fmt"
	"math"

	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PolicyKind selects an IFetch policy family.
type PolicyKind int

const (
	// ICOUNT is the baseline fetch policy.
	ICOUNT PolicyKind = iota
	// FlushS is speculative FLUSH; Trigger selects the delay.
	FlushS
	// FlushNS is non-speculative (trigger-on-miss) FLUSH.
	FlushNS
	// StallS is the STALL response action with a delay trigger.
	StallS
	// MFLUSH is the paper's adaptive policy; History selects the MCReg
	// depth (0 or 1 for the published single-register design).
	MFLUSH
)

// PolicySpec identifies a policy instance.
type PolicySpec struct {
	Kind    PolicyKind
	Trigger int
	History int
}

// Common specs used throughout the evaluation.
var (
	SpecICOUNT  = PolicySpec{Kind: ICOUNT}
	SpecFlushNS = PolicySpec{Kind: FlushNS}
	SpecMFLUSH  = PolicySpec{Kind: MFLUSH}
)

// SpecFlushS returns the speculative FLUSH spec with the given trigger.
func SpecFlushS(trigger int) PolicySpec { return PolicySpec{Kind: FlushS, Trigger: trigger} }

// SpecStallS returns the STALL spec with the given trigger.
func SpecStallS(trigger int) PolicySpec { return PolicySpec{Kind: StallS, Trigger: trigger} }

// String names the spec as the paper does (ICOUNT, FLUSH-S30, FLUSH-NS,
// MFLUSH, ...).
func (s PolicySpec) String() string {
	switch s.Kind {
	case ICOUNT:
		return "ICOUNT"
	case FlushS:
		return fmt.Sprintf("FLUSH-S%d", s.Trigger)
	case FlushNS:
		return "FLUSH-NS"
	case StallS:
		return fmt.Sprintf("STALL-S%d", s.Trigger)
	case MFLUSH:
		if s.History > 1 {
			return fmt.Sprintf("MFLUSH-H%d", s.History)
		}
		return "MFLUSH"
	default:
		return fmt.Sprintf("policy(%d)", int(s.Kind))
	}
}

// Build instantiates the policy for one core of the given machine.
func (s PolicySpec) Build(cfg *config.Config) (policy.Policy, error) {
	threads := cfg.Core.ThreadsPerCore
	switch s.Kind {
	case ICOUNT:
		return policy.NewICOUNT(), nil
	case FlushS:
		if s.Trigger <= 0 {
			return nil, fmt.Errorf("sim: FLUSH-S needs a positive trigger")
		}
		return policy.NewFlushS(threads, s.Trigger), nil
	case FlushNS:
		return policy.NewFlushNS(threads), nil
	case StallS:
		if s.Trigger <= 0 {
			return nil, fmt.Errorf("sim: STALL-S needs a positive trigger")
		}
		return policy.NewStall(threads, s.Trigger), nil
	case MFLUSH:
		h := s.History
		if h <= 0 {
			h = 1
		}
		return core.NewMFLUSHHistory(cfg, h), nil
	default:
		return nil, fmt.Errorf("sim: unknown policy kind %d", s.Kind)
	}
}

// Options configures one simulation run.
type Options struct {
	// Workload selects the benchmarks; the core count is derived from
	// its size (2 contexts per core).
	Workload workload.Workload
	// Name overrides the workload name reported in Result and Summary.
	// Replay runs (ThreadTraces) have no Workload and otherwise report
	// the synthetic "replay-N".
	Name string
	// Policy is instantiated once per core.
	Policy PolicySpec
	// Cycles is the measured simulation length; Warmup cycles run first
	// and are excluded from all metrics.
	Cycles, Warmup uint64
	// Seed makes the run reproducible; runs with equal seeds and
	// workloads see identical instruction streams across policies.
	Seed uint64
	// Cores overrides the derived core count (0: use Workload.Cores()).
	Cores int
	// Tweak, when non-nil, mutates the machine configuration after the
	// defaults are applied — the hook ablation studies use (MSHR size,
	// queue sizes, bus width, ...). The mutated config must validate.
	Tweak func(*config.Config)
	// ThreadTraces, when non-empty, replays recorded traces (one slice
	// per hardware thread, e.g. loaded with trace.ReadAll) instead of
	// synthesising instructions from the Workload's profiles. Threads
	// 2i and 2i+1 share core i. Functional L2 pre-warming is skipped:
	// recorded traces carry no footprint metadata, so rely on Warmup.
	ThreadTraces [][]isa.Inst
	// Interval, when positive, samples the measured window every
	// Interval cycles into Result.Samples (a Recorder probe registered
	// after warm-up). Zero leaves Result.Samples nil and the run
	// byte-identical to an unsampled one.
	Interval uint64
	// OnSample, when non-nil and Interval is positive, additionally
	// receives each sample point live as the simulation takes it — the
	// hook behind mflushsim's streaming -interval output and mflushd's
	// per-job sample SSE events. It runs on the simulating goroutine.
	OnSample func(SamplePoint)
}

// Result is the outcome of one run.
type Result struct {
	Workload string
	Policy   string
	Cycles   uint64
	// Committed holds per-thread committed instructions (global thread
	// order); IPC is the system throughput (paper's metric).
	Committed []uint64
	IPC       float64
	// PerCore is the per-core IPC.
	PerCore []float64
	// HitLatency is the L2 hit-time histogram (Figure 4 metric).
	HitLatency *stats.Histogram
	// Energy aggregates the FLUSH-waste accounting over all cores
	// (Figure 11 metric).
	Energy energy.Account
	// Counters merges the per-core and L2 event counters.
	Counters stats.Set
	// Flushes is the number of FLUSH events across the chip.
	Flushes uint64
	// Samples is the interval time series recorded when Options.Interval
	// was positive; nil otherwise.
	Samples []SamplePoint
}

// WastedEnergy returns the Figure 11 metric in energy units.
func (r *Result) WastedEnergy() float64 { return r.Energy.Wasted() }

// Summary is a flat, serialisable digest of a Result for downstream
// tooling (mflushsim -json).
type Summary struct {
	Workload        string            `json:"workload"`
	Policy          string            `json:"policy"`
	Cycles          uint64            `json:"cycles"`
	IPC             float64           `json:"ipc"`
	PerCoreIPC      []float64         `json:"per_core_ipc"`
	Committed       []uint64          `json:"committed_per_thread"`
	Flushes         uint64            `json:"flushes"`
	FlushedInsts    uint64            `json:"flushed_instructions"`
	WastedEnergy    float64           `json:"wasted_energy_units"`
	WastedPerCommit float64           `json:"wasted_energy_per_commit"`
	L2HitMean       float64           `json:"l2_hit_mean_cycles"`
	L2HitP50        int               `json:"l2_hit_p50_cycles"`
	L2HitP90        int               `json:"l2_hit_p90_cycles"`
	L2HitMax        int               `json:"l2_hit_max_cycles"`
	L2Hits          uint64            `json:"l2_hits_measured"`
	Counters        map[string]uint64 `json:"counters"`
	// IntervalSamples carries the interval time series for runs that
	// requested one (Options.Interval > 0), omitted otherwise.
	IntervalSamples []SamplePoint `json:"interval_samples,omitempty"`
}

// Summary builds the serialisable digest.
func (r *Result) Summary() Summary {
	counters := make(map[string]uint64)
	for _, c := range r.Counters.All() {
		counters[c.Name] = c.Value
	}
	return Summary{
		Workload:        r.Workload,
		Policy:          r.Policy,
		Cycles:          r.Cycles,
		IPC:             r.IPC,
		PerCoreIPC:      r.PerCore,
		Committed:       r.Committed,
		Flushes:         r.Flushes,
		FlushedInsts:    r.Energy.FlushedTotal(),
		WastedEnergy:    r.WastedEnergy(),
		WastedPerCommit: r.Energy.WastedPerCommit(),
		L2HitMean:       r.HitLatency.Mean(),
		L2HitP50:        r.HitLatency.Percentile(0.5),
		L2HitP90:        r.HitLatency.Percentile(0.9),
		L2HitMax:        r.HitLatency.Max(),
		L2Hits:          r.HitLatency.Count(),
		Counters:        counters,
		IntervalSamples: r.Samples,
	}
}

// Run executes one simulation to completion: RunGang of width 1, whose
// lone member is a Session driven Open, Step(Warmup), ResetMeasurement,
// Step(Cycles), Finish over an unshared build. Its output is
// bit-identical to the pre-Session one-shot driver (test-enforced with
// golden fingerprints).
func Run(opt Options) (*Result, error) {
	results, err := RunGang([]Options{opt})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// buildChip assembles the machine, workload sources and policies for one
// run, including functional L2 pre-warming. Split from Run so tests can
// measure the cycle loop (allocations, throughput) apart from
// construction.
func buildChip(opt Options) (*cmp.Chip, error) {
	return buildChipShared(opt, nil)
}

// buildChipShared is buildChip with an optional gang-sharing context.
// With a nil shared (Open, and a width-1 gang) it is exactly the solo
// build. With one, the
// immutable inputs every member would otherwise recompute are built once
// and reused across the gang: workload profiles, the L2 prewarm fill
// plan, and — the expensive one — the synthesised instruction streams,
// which members consume through per-member cursors over one memoised
// stream instead of each running its own generator. Sharing is keyed so
// only members that would have produced bit-identical inputs share them,
// which keeps every member's output bit-identical to a solo build
// (test-enforced by simtest.DiffGang).
func buildChipShared(opt Options, shared *gangShared) (*cmp.Chip, error) {
	cores := opt.Cores
	if cores == 0 {
		if len(opt.ThreadTraces) > 0 {
			cores = replayCores(opt, len(opt.ThreadTraces))
		} else {
			cores = opt.Workload.Cores()
		}
	}
	cfg := config.Default(cores)
	cfg.Seed = opt.Seed
	if opt.Tweak != nil {
		opt.Tweak(&cfg)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: tweaked config invalid: %w", err)
		}
	}

	var profiles []synth.Profile
	threadsPerCore := cfg.Core.ThreadsPerCore
	if len(opt.ThreadTraces) > 0 {
		if len(opt.ThreadTraces) > cores*threadsPerCore {
			return nil, fmt.Errorf("sim: %d traces need more than the %d available contexts",
				len(opt.ThreadTraces), cores*threadsPerCore)
		}
		for i, tr := range opt.ThreadTraces {
			if len(tr) == 0 {
				return nil, fmt.Errorf("sim: trace %d is empty", i)
			}
		}
	} else {
		var err error
		if shared != nil {
			profiles, err = shared.profilesFor(opt.Workload)
		} else {
			profiles, err = opt.Workload.Profiles()
		}
		if err != nil {
			return nil, err
		}
		if len(profiles) > cores*threadsPerCore {
			return nil, fmt.Errorf("sim: workload %s needs %d contexts, machine has %d",
				opt.Workload.Name, len(profiles), cores*threadsPerCore)
		}
	}

	policies := make([]policy.Policy, cores)
	sources := make([][]trace.Source, cores)
	bases := make([][]uint64, cores)
	for c := 0; c < cores; c++ {
		p, err := opt.Policy.Build(&cfg)
		if err != nil {
			return nil, err
		}
		policies[c] = p
		for t := 0; t < threadsPerCore; t++ {
			g := c*threadsPerCore + t
			seed, base := ReplayStream(opt.Seed, g)
			var src trace.Source
			if len(opt.ThreadTraces) > 0 {
				// Replay mode: threads beyond the supplied traces
				// re-run them modulo the trace count.
				src = trace.NewSliceSource(opt.ThreadTraces[g%len(opt.ThreadTraces)])
			} else {
				// Threads beyond the workload re-run it modulo its size
				// (never happens for the paper's workloads, which
				// exactly fill the machine).
				prof := profiles[g%len(profiles)]
				if shared != nil {
					// Members whose thread would synthesise the exact
					// same stream (same workload profile, generator
					// seed and address base) read one memoised stream
					// through private cursors.
					src = shared.cursorFor(opt.Workload.Name, g%len(profiles), prof, seed, base)
				} else {
					src = synth.NewGenerator(prof, seed, base)
				}
			}
			sources[c] = append(sources[c], src)
			bases[c] = append(bases[c], base)
		}
	}

	chip, err := cmp.New(cfg, policies, sources, bases)
	if err != nil {
		return nil, err
	}
	if len(profiles) > 0 {
		capBytes := uint64(2 * chip.Config().Mem.L2.SizeBytes)
		line := uint64(chip.Config().Mem.L2.LineBytes)
		var plan []uint64
		if shared != nil {
			plan = shared.prewarmFor(opt.Workload.Name, profiles, bases, capBytes, line)
		} else {
			plan = prewarmPlan(profiles, bases, capBytes, line)
		}
		applyPrewarm(chip, plan)
	}
	return chip, nil
}

// ReplayStream returns the generator seed and address base thread g of a
// run with synthesis seed seed draws its instruction stream from.
// Exported so trace synthesizers (cmd/mflushtrace) can record streams
// bit-identical to what a live run would synthesise for the same
// (profile, seed, thread slot).
func ReplayStream(seed uint64, g int) (streamSeed, addrBase uint64) {
	return seed*0x9E3779B97F4A7C15 + uint64(g)*0x1000193 + 1, uint64(g+1) << 34
}

// replayCores derives the core count for a trace-replay run when
// Options.Cores is unset: enough cores to give every trace a hardware
// context. Threads-per-core is read from a tweaked probe config because
// a Tweak may change it — deriving with the built-in default and
// applying the tweak afterwards is the bug this function replaces. An
// invalid tweaked value is left for cfg.Validate to reject; the probe
// only needs to avoid dividing by zero.
func replayCores(opt Options, nTraces int) int {
	probe := config.Default(1)
	if opt.Tweak != nil {
		opt.Tweak(&probe)
	}
	tpc := probe.Core.ThreadsPerCore
	if tpc < 1 {
		tpc = 1
	}
	return (nTraces + tpc - 1) / tpc
}

// prewarmPlan computes the functional L2 prewarm fill sequence for each
// thread's data footprint, interleaved across threads so each retains a
// proportional share. The paper's 120M-cycle runs reach this steady
// state on their own; our shorter windows would otherwise keep reporting
// virgin-page cold misses that no real steady state contains. Footprints
// much larger than the L2 are skipped: they churn the cache regardless,
// so prewarming them would only distort LRU state.
//
// The plan depends only on immutable inputs (profiles, thread address
// bases, L2 geometry), so a gang computes it once per distinct machine
// shape and replays it into every member (applyPrewarm).
func prewarmPlan(profiles []synth.Profile, bases [][]uint64, capBytes, line uint64) []uint64 {
	type cursor struct {
		next, end uint64
	}
	var cursors []cursor
	idx := 0
	for c := range bases {
		for t := range bases[c] {
			prof := profiles[idx%len(profiles)]
			idx++
			if prof.FootprintBytes > capBytes {
				continue
			}
			// Matches the generator's data placement (base + 1GB).
			dataBase := bases[c][t] + 1<<30
			cursors = append(cursors, cursor{next: dataBase, end: dataBase + prof.FootprintBytes})
		}
	}
	lines := 0
	for _, cu := range cursors {
		lines += int((cu.end - cu.next + line - 1) / line)
	}
	plan := make([]uint64, 0, lines)
	for {
		progressed := false
		for i := range cursors {
			cu := &cursors[i]
			if cu.next >= cu.end {
				continue
			}
			plan = append(plan, cu.next)
			cu.next += line
			progressed = true
		}
		if !progressed {
			return plan
		}
	}
}

// applyPrewarm replays a prewarm fill plan into one chip's L2.
func applyPrewarm(chip *cmp.Chip, plan []uint64) {
	l2 := chip.L2().Cache()
	for _, addr := range plan {
		l2.Fill(addr)
	}
}

// collect folds the chip's accumulated measurements into a Result over a
// measurement window of `cycles` cycles (the IPC denominator).
func collect(chip *cmp.Chip, opt Options, cycles uint64) (*Result, error) {
	if err := chip.CheckInvariants(); err != nil {
		return nil, err
	}
	name := opt.Name
	if name == "" {
		if len(opt.ThreadTraces) > 0 {
			// Replay runs have no Workload; name them by trace count.
			name = fmt.Sprintf("replay-%d", len(opt.ThreadTraces))
		} else {
			name = opt.Workload.Name
		}
	}
	res := &Result{
		Workload:   name,
		Policy:     opt.Policy.String(),
		Cycles:     cycles,
		HitLatency: chip.L2().HitLatency(),
	}
	var total uint64
	for _, c := range chip.Cores() {
		var coreTotal uint64
		for _, n := range c.Committed() {
			res.Committed = append(res.Committed, n)
			coreTotal += n
		}
		total += coreTotal
		res.PerCore = append(res.PerCore, float64(coreTotal)/float64(cycles))
		res.Energy.Merge(c.Energy())
		res.Counters.Merge(c.Stats())
		res.Flushes += c.Stats().Get("policy.flushes")
	}
	res.Counters.Merge(chip.L2().Counters())
	res.IPC = float64(total) / float64(cycles)
	return res, nil
}

// Speedup returns (a/b - 1) as a fraction: the throughput gain of a
// over b. A zero-throughput baseline has no defined speedup, so the
// result is NaN — propagating loudly through downstream means and
// reports instead of masquerading as "no gain" — and callers that want
// a sentinel should check math.IsNaN.
func Speedup(a, b *Result) float64 {
	if b.IPC == 0 {
		return math.NaN()
	}
	return a.IPC/b.IPC - 1
}
