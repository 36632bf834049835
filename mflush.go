// Package mflush is the public API of the MFLUSH reproduction: a
// trace-driven cycle-level simulator of chip multiprocessors built from
// SMT cores sharing a banked L2 cache, together with the instruction-fetch
// policies the paper studies (ICOUNT, FLUSH, STALL) and its contribution,
// the adaptive MFLUSH policy.
//
// Reproduces: Acosta, Cazorla, Ramirez, Valero — "MFLUSH: Handling
// Long-latency loads in SMT On-Chip Multiprocessors", ICPP 2008.
//
// Quickstart:
//
//	w, _ := mflush.WorkloadByName("2W3") // mcf + gzip
//	res, err := mflush.Run(mflush.Options{
//		Workload: w,
//		Policy:   mflush.MFLUSH,
//		Warmup:   300_000,
//		Cycles:   200_000,
//	})
//	fmt.Println(res.IPC)
//
// cmd/mflushbench regenerates every figure of the paper's evaluation as
// text tables.
package mflush

import (
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/workload"
)

// Options configures one simulation run. See sim.Options.
type Options = sim.Options

// Result is the outcome of one run. See sim.Result.
type Result = sim.Result

// Session is an open, incrementally steppable simulation: advance it
// with Step, observe it with Snapshot and Observe, close it with
// Finish. See sim.Session.
type Session = sim.Session

// Sample is the cheap interval digest a Session exposes while running.
// See sim.Sample.
type Sample = sim.Sample

// SamplePoint is the retainable, serialisable form of a Sample. See
// sim.SamplePoint.
type SamplePoint = sim.SamplePoint

// Probe is a periodic observer registered with Session.Observe. See
// sim.Probe for the firing and no-mutation invariants.
type Probe = sim.Probe

// Recorder collects a probe's firings into a SamplePoint time series.
// See sim.Recorder.
type Recorder = sim.Recorder

// PolicySpec selects an IFetch policy.
type PolicySpec = sim.PolicySpec

// Workload is a named set of benchmark instances, one per hardware thread.
type Workload = workload.Workload

// Profile is a synthetic benchmark description.
type Profile = synth.Profile

// Common policy specifications.
var (
	// ICOUNT is the baseline fetch policy (Tullsen et al., ISCA'96).
	ICOUNT = sim.SpecICOUNT
	// FlushNS is non-speculative FLUSH (trigger on detected L2 miss).
	FlushNS = sim.SpecFlushNS
	// MFLUSH is the paper's adaptive policy.
	MFLUSH = sim.SpecMFLUSH
)

// FlushS returns speculative FLUSH with the given delay-after-issue
// trigger in cycles (the paper's FLUSH-SX).
func FlushS(trigger int) PolicySpec { return sim.SpecFlushS(trigger) }

// StallS returns the STALL policy with the given trigger.
func StallS(trigger int) PolicySpec { return sim.SpecStallS(trigger) }

// MFLUSHHistory returns MFLUSH with a deeper MCReg history (the paper's
// optional configuration; 1 is the published single-register design).
func MFLUSHHistory(depth int) PolicySpec {
	return sim.PolicySpec{Kind: sim.MFLUSH, History: depth}
}

// Run executes one simulation to completion (a thin wrapper over the
// Session API; see sim.Run).
func Run(opt Options) (*Result, error) { return sim.Run(opt) }

// Open starts an incremental simulation session positioned at cycle
// zero: the steppable, observable form of Run.
func Open(opt Options) (*Session, error) { return sim.Open(opt) }

// Speedup returns a's throughput gain over b as a fraction.
func Speedup(a, b *Result) float64 { return sim.Speedup(a, b) }

// DefaultConfig returns the paper's Figure 1 machine with the given core
// count (each core has two hardware contexts).
func DefaultConfig(cores int) config.Config { return config.Default(cores) }

// Workloads returns the paper's 20 Figure 1 workloads.
func Workloads() []Workload { return workload.All() }

// WorkloadByName resolves an xWy workload name.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// WorkloadsOfSize returns the five workloads with the given thread count
// (2, 4, 6 or 8).
func WorkloadsOfSize(threads int) []Workload { return workload.OfSize(threads) }

// BenchmarkProfiles returns the 26 synthetic SPEC2000 benchmark profiles.
func BenchmarkProfiles() []Profile { return synth.Profiles() }

// OperationalEnvironment returns the MFLUSH thresholds (MIN, MAX, MT,
// suspicious, Barrier behaviour) for a machine with the given core count.
func OperationalEnvironment(cores int) policy.OperationalEnvironment {
	cfg := config.Default(cores)
	return policy.EnvironmentFor(&cfg)
}
