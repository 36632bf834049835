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
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/stats"
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
func (s PolicySpec) Build(cfg *config.Config) (*policy.Policy, error) {
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
		return policy.NewMFLUSH(cfg, h), nil
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
	// per hardware thread, e.g. a trace.LoadScenario's Threads) instead of
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

// Run executes one simulation to completion: a Session driven Open,
// Step(Warmup), ResetMeasurement, Step(Cycles), Finish, with a Recorder
// observing the measured window when opt.Interval is positive. It is
// the one run-to-completion driver; RunGang calls it once per member.
// Its output is bit-identical to the pre-Session one-shot driver
// (test-enforced with golden fingerprints).
func Run(opt Options) (*Result, error) { return run(opt, true) }

// run is Run on a Session opened with open's reuse.
func run(opt Options, reuse bool) (*Result, error) {
	if opt.Cycles == 0 {
		return nil, fmt.Errorf("sim: zero cycle budget")
	}
	s, err := open(opt, reuse)
	if err != nil {
		return nil, err
	}
	if opt.Warmup > 0 {
		s.Step(opt.Warmup)
		s.ResetMeasurement()
	}
	var rec *Recorder
	if opt.Interval > 0 {
		// Registered after warm-up so the series covers exactly the
		// measured window, firing at measured cycles Interval,
		// 2*Interval, ...
		rec = &Recorder{OnPoint: opt.OnSample}
		if err := s.Observe(rec.Probe(opt.Interval)); err != nil {
			return nil, err
		}
	}
	s.Step(opt.Cycles)
	res, err := s.Finish()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		res.Samples = rec.Points
	}
	return res, nil
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
		Workload: name,
		Policy:   opt.Policy.String(),
		Cycles:   cycles,
		// A copy: the machine's own histogram is reset in place for
		// the next job it runs.
		HitLatency: chip.L2().HitLatency().Clone(),
	}
	var total uint64
	for _, c := range chip.Cores() {
		res.Committed = c.AppendCommitted(res.Committed)
		coreTotal := c.CommittedTotal()
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
