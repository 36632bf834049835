package sim

import "fmt"

// Probe is a periodic observer of a running Session. Every Every cycles
// the session refreshes its internal Sample and calls Fn with it.
//
// Probe invariants (ARCHITECTURE.md, "Session lifecycle"):
//
//   - Fn runs synchronously on the stepping goroutine, between two
//     chip.Run chunks with every core settled — never concurrently with
//     the simulation or other probes.
//   - Fn must only read the Sample; it must not mutate simulator state.
//     Probes are observers: a session with probes steps the exact same
//     machine states as one without, so results stay bit-identical.
//   - The Sample (including its slices) is owned by the session and
//     reused across firings; Fn must copy (Sample.Point) to retain it.
//   - Firing costs no heap allocation once the session's sample buffers
//     have warmed (first firing), preserving the zero-allocation cycle
//     loop. What Fn itself allocates is the probe's own budget.
//
// The firing phase is counted from registration: a probe registered at
// measured cycle 0 with Every=k fires at measured cycles k, 2k, 3k, ...
type Probe struct {
	// Every is the firing period in cycles; it must be positive.
	Every uint64
	// Fn receives the session's refreshed Sample at each firing.
	Fn func(*Sample)
}

// probeState is one registered probe plus its firing countdown.
type probeState struct {
	p         Probe
	countdown uint64
}

// Observe registers a probe. Probes may be added at any point before
// Finish — mflushsim registers its interval recorder only after warm-up,
// so the series covers exactly the measured window. Registration order
// is firing order for probes that fire on the same cycle.
func (s *Session) Observe(p Probe) error {
	if s.finished {
		return fmt.Errorf("sim: Observe on a finished session")
	}
	if p.Every == 0 {
		return fmt.Errorf("sim: probe needs a positive firing period")
	}
	if p.Fn == nil {
		return fmt.Errorf("sim: probe needs a firing function")
	}
	s.probes = append(s.probes, probeState{p: p, countdown: p.Every})
	return nil
}

// fireProbes advances every countdown by the k cycles just run and fires
// the probes that came due. The sample is refreshed at most once per
// firing cycle, shared by all probes firing on it.
//
//mflush:hotpath
func (s *Session) fireProbes(k uint64) {
	refreshed := false
	for i := range s.probes {
		ps := &s.probes[i]
		if ps.countdown -= k; ps.countdown > 0 {
			continue
		}
		ps.countdown = ps.p.Every
		if !refreshed {
			s.refreshSample()
			refreshed = true
		}
		ps.p.Fn(&s.sample)
	}
}
