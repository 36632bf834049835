package sim

import "fmt"

// GangSession runs N member simulations — variants of one study, such as
// a policy sweep over a shared (workload, seed) — in lockstep: every
// member advances through the same cycle window together. Every member's
// observable output is bit-identical to a solo Session over the same
// Options — the invariant internal/simtest (DiffGang) exists to enforce.
//
// A gang is N Sessions: each member is an ordinary Session built exactly
// as Open builds it, and every per-member call delegates to it, so
// Session.Step is the only stepping code. Members share nothing; each
// synthesises its own instruction streams. Step runs the members one
// after another on the caller's goroutine, so a gang is no faster than
// its members run alone; parallelism across jobs is the campaign
// scheduler's. A gang keeps every member's machine alive until it
// finishes, so it is for lockstep observation (simtest.DiffGang);
// RunGang runs its members one at a time without it.
//
// Lifecycle mirrors Session, widened: OpenGang -> (Step | Snapshot |
// Observe | ResetMeasurement | FinishMember)* -> Finish.
type GangSession struct {
	members []*Session
	results []*Result

	cycle uint64
}

// OpenGang builds one machine per member, each exactly as Open builds
// it, and returns the gang positioned at cycle zero. Members may differ
// in any Options field.
func OpenGang(opts []Options) (*GangSession, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one member")
	}
	g := &GangSession{
		members: make([]*Session, len(opts)),
		results: make([]*Result, len(opts)),
	}
	for m, opt := range opts {
		chip, err := buildChip(opt)
		if err != nil {
			return nil, memberErr(len(opts), m, err)
		}
		g.members[m] = newSession(opt, chip)
	}
	return g, nil
}

// memberErr names the failing member of a multi-member gang. A width-1
// gang is a solo run, so its errors read exactly as a Session's do.
func memberErr(width, m int, err error) error {
	if width == 1 {
		return err
	}
	return fmt.Errorf("sim: gang member %d: %w", m, err)
}

// Width returns the gang's member count (finished members included).
func (g *GangSession) Width() int { return len(g.members) }

// Open returns how many members have not yet been finished.
func (g *GangSession) Open() int {
	n := 0
	for _, s := range g.members {
		if !s.finished {
			n++
		}
	}
	return n
}

// Cycle returns the lockstep cycle every open member has reached
// (warm-up included).
func (g *GangSession) Cycle() uint64 { return g.cycle }

// MeasuredCycles returns member m's current measurement-window length.
func (g *GangSession) MeasuredCycles(m int) uint64 { return g.members[m].MeasuredCycles() }

// Step advances every open member by n cycles, one member after another
// on the caller's goroutine, firing each member's due probes after each
// of its cycles. Members are independent machines, so the order they
// are stepped in never shows in their output (test-enforced).
func (g *GangSession) Step(n uint64) {
	open := false
	for _, s := range g.members {
		if !s.finished {
			s.Step(n)
			open = true
		}
	}
	if !open {
		panic("sim: Step on a finished gang session")
	}
	g.cycle += n
}

// ResetMeasurement restarts every open member's measurement window at
// the current lockstep cycle — the gang-wide warm-up boundary, exactly
// Session.ResetMeasurement per member. Finished members are left
// untouched.
func (g *GangSession) ResetMeasurement() {
	for _, s := range g.members {
		if !s.finished {
			s.ResetMeasurement()
		}
	}
}

// Snapshot returns member m's Session.Snapshot: the refreshed interval
// digest, sharing the member's reused buffers until its next Step,
// Snapshot or probe firing.
func (g *GangSession) Snapshot(m int) *Sample { return g.members[m].Snapshot() }

// Observe registers a probe for member m; see Probe for the firing
// invariants. Probes may be added to any unfinished member at any point
// before it finishes.
func (g *GangSession) Observe(m int, p Probe) error {
	if m < 0 || m >= len(g.members) {
		return fmt.Errorf("sim: gang has no member %d", m)
	}
	return g.members[m].Observe(p)
}

// FinishMember finishes member m's Session — validating its machine
// invariants and collecting its Result over its measurement window — and
// removes it from the lockstep: subsequent Steps advance only the
// remaining members. The rest of the gang is unaffected — bit-identically
// so.
func (g *GangSession) FinishMember(m int) (*Result, error) {
	if m < 0 || m >= len(g.members) {
		return nil, fmt.Errorf("sim: gang has no member %d", m)
	}
	res, err := g.members[m].Finish()
	if err != nil {
		return nil, memberErr(len(g.members), m, err)
	}
	g.results[m] = res
	return res, nil
}

// Finish finishes every still-open member (in member order) and returns
// the full width of results, including those collected earlier by
// FinishMember. The first member error is returned after every member
// has been finished, so a partial failure still closes the gang.
func (g *GangSession) Finish() ([]*Result, error) {
	var firstErr error
	for m, s := range g.members {
		if s.finished {
			continue
		}
		if _, err := g.FinishMember(m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return g.results, firstErr
}

// RunGang executes one simulation per member through Run, in member
// order, so a gang holds one machine at a time: member m's chip is
// finished and its L2 arrays are back in the pool before member m+1's
// is built. Each Result is bit-identical to Run's (test-enforced). All
// members must share one cycle budget and warm-up length (gang batching
// groups jobs that way).
func RunGang(opts []Options) ([]*Result, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("sim: empty gang")
	}
	for i, o := range opts {
		if o.Cycles == 0 {
			return nil, memberErr(len(opts), i, fmt.Errorf("sim: zero cycle budget"))
		}
		if o.Cycles != opts[0].Cycles || o.Warmup != opts[0].Warmup {
			return nil, fmt.Errorf("sim: gang member %d budget (%d cycles, %d warmup) differs from member 0 (%d, %d); gangs run one lockstep window",
				i, o.Cycles, o.Warmup, opts[0].Cycles, opts[0].Warmup)
		}
	}
	results := make([]*Result, len(opts))
	for m, o := range opts {
		res, err := Run(o)
		if err != nil {
			return nil, memberErr(len(opts), m, err)
		}
		results[m] = res
	}
	return results, nil
}
