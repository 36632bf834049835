package sim

import (
	"fmt"

	"repro/internal/cmp"
	"repro/internal/policy"
)

// Session is an open, incrementally steppable simulation — the stateful
// form of Run. Where Run is a run-to-completion black box, a Session
// exposes the temporal behaviour the paper's mechanism is about: callers
// advance the machine in arbitrary chunks with Step, read cheap interval
// digests with Snapshot, register periodic Probes with Observe, and
// close the run with Finish to obtain the same Result a one-shot Run
// would have produced.
//
// Lifecycle: Open -> (Step | Snapshot | Observe | ResetMeasurement)* ->
// Finish. A session is not safe for concurrent use; drive it from one
// goroutine. Run drives a Session Open -> Step(Warmup) ->
// ResetMeasurement -> Step(Cycles) -> Finish, so stepping a session in
// any chunking reproduces Run bit-for-bit (test-enforced). Session.Step
// is the simulator's only stepping code.
type Session struct {
	opt Options
	// m is the machine the session runs, nil once the session is
	// finished. reuse hands it to the next job at Finish.
	m     *machine
	reuse bool
	// measureStart is the absolute cycle of the last ResetMeasurement
	// (zero until one happens): the start of the measurement window.
	// resetGen counts the resets, so recorders can rebase their deltas.
	// measured is the final window's length, recorded by Finish.
	measureStart uint64
	resetGen     uint64
	measured     uint64

	probes []probeState
	// sample is the reusable digest refreshed by Snapshot and probe
	// firings; totals is its scratch. Reusing both keeps the observing
	// hot path allocation-free.
	sample Sample
	totals cmp.Totals
	// mcregs caches the per-core MCReg files when every core runs
	// MFLUSH, nil otherwise.
	mcregs []*policy.MCRegFile
}

// Open builds the machine for opt and returns a session positioned at
// cycle zero, before any warm-up. Unlike Run, Open does not require a
// cycle budget: opt.Cycles and opt.Warmup only matter to Run's wrapper
// flow (and to naming in the Result); the caller decides how far to
// step. Everything else in opt (workload, policy, seed, tweak, traces)
// is honoured exactly as Run does.
//
// The machine is a finished one of the same configuration when one is
// free, reset to exactly what construction produces, so which machine a
// session gets never changes its results (test-enforced).
func Open(opt Options) (*Session, error) { return open(opt, true) }

// open is Open; without reuse it builds a machine no job ran before and
// keeps it out of the pool, the reference the reuse tests compare with.
func open(opt Options, reuse bool) (*Session, error) {
	m, err := buildMachine(opt, reuse)
	if err != nil {
		return nil, err
	}
	return &Session{opt: opt, m: m, reuse: reuse, mcregs: mcregFiles(m.chip)}, nil
}

// mcregFiles returns the per-core MCReg files, or nil when any core's
// policy has none.
func mcregFiles(chip *cmp.Chip) []*policy.MCRegFile {
	var out []*policy.MCRegFile
	for _, c := range chip.Cores() {
		f := c.Policy().MCReg()
		if f == nil {
			return nil
		}
		out = append(out, f)
	}
	return out
}

// Step advances the simulation by n cycles. It runs the chip to the
// nearer of the step's end and the next probe firing, fires the due
// probes on the settled chip, and repeats; with no probes registered it
// is one chip Run. Probes add no allocation.
//
//mflush:hotpath
func (s *Session) Step(n uint64) {
	if s.m == nil {
		panic("sim: Step on a finished session")
	}
	for n > 0 {
		k := n
		for i := range s.probes {
			k = min(k, s.probes[i].countdown)
		}
		s.m.chip.Run(k)
		n -= k
		s.fireProbes(k)
	}
}

// MeasuredCycles returns the length of the current measurement window:
// cycles stepped since the last ResetMeasurement (or since Open). After
// Finish it is the final window's length.
func (s *Session) MeasuredCycles() uint64 {
	if s.m == nil {
		return s.measured
	}
	return s.m.chip.Now() - s.measureStart
}

// ResetMeasurement zeroes every accumulated metric — per-core counters,
// energy accounts, per-thread commit counts, the L2 histograms and
// counters — without touching microarchitectural state, and restarts the
// measurement window at the current cycle. This is how warm-up is
// excluded: Run calls it between Step(Warmup) and Step(Cycles). It
// panics on a finished session.
func (s *Session) ResetMeasurement() {
	if s.m == nil {
		panic("sim: ResetMeasurement on a finished session")
	}
	for _, c := range s.m.chip.Cores() {
		c.ResetMeasurement()
	}
	s.m.chip.L2().ResetStats()
	s.measureStart = s.m.chip.Now()
	s.resetGen++
}

// Snapshot refreshes and returns the session's interval digest:
// cumulative per-thread committed counts, IPC, flushes, energy, L2
// hit/miss deltas over the measurement window, plus the MFLUSH MCReg
// state when that policy is running. The returned Sample shares the
// session's reused buffers — it is valid until the next Step, Snapshot
// or probe firing; use Sample.Point to retain a copy. Snapshot only
// reads, so interleaving it with Step never changes results. It panics
// on a finished session.
func (s *Session) Snapshot() *Sample {
	if s.m == nil {
		panic("sim: Snapshot on a finished session")
	}
	s.refreshSample()
	return &s.sample
}

// refreshSample fills s.sample from the chip, reusing its slices and
// the totals scratch.
//
//mflush:hotpath
func (s *Session) refreshSample() {
	sm, chip := &s.sample, s.m.chip
	chip.ReadTotals(&s.totals)
	sm.Cycle = chip.Now()
	sm.MeasuredCycles = chip.Now() - s.measureStart
	sm.resetGen = s.resetGen
	sm.Committed = chip.AppendCommitted(sm.Committed[:0])
	if sm.MeasuredCycles > 0 {
		sm.IPC = float64(s.totals.Committed) / float64(sm.MeasuredCycles)
	} else {
		sm.IPC = 0
	}
	sm.Flushes = s.totals.Flushes
	sm.FlushedInsts = s.totals.FlushedInsts
	sm.WastedEnergy = s.totals.WastedEnergy
	sm.L2Hits = s.totals.L2Hits
	sm.L2Misses = s.totals.L2Misses
	if len(s.mcregs) == 0 {
		sm.MCReg = nil
		return
	}
	if sm.MCReg == nil {
		sm.MCReg = make([][]uint8, len(s.mcregs))
	}
	for i, f := range s.mcregs {
		sm.MCReg[i] = f.AppendSnapshot(sm.MCReg[i][:0])
	}
}

// Finish validates the machine's invariants and collects the Result over
// the measurement window (MeasuredCycles is the IPC denominator, so a
// session that stepped Warmup, reset, then stepped Cycles returns
// exactly Run's result). The Result shares nothing with the machine.
//
// The session is closed afterwards and never touches the machine again:
// Step, ResetMeasurement and Snapshot panic, Observe and a second Finish
// error, and MeasuredCycles reports the final window. The machine goes to
// the next session opened on its configuration, possibly on another
// goroutine, unless its invariants failed.
func (s *Session) Finish() (*Result, error) {
	if s.m == nil {
		return nil, fmt.Errorf("sim: session already finished")
	}
	measured := s.MeasuredCycles()
	if measured == 0 {
		return nil, fmt.Errorf("sim: session finished with an empty measurement window")
	}
	res, err := collect(s.m.chip, s.opt, measured)
	if err == nil && s.reuse {
		s.m.release()
	}
	s.m, s.measured = nil, measured
	return res, err
}
