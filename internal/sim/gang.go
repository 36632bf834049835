package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// This file is the audited home of simulator-core concurrency: the gang
// chunk loop fans members across worker goroutines behind deterministic
// barriers, and the determinism analyzer forbids `go` statements in
// every other core file.
//
//mflush:gang-barrier-file

// GangSession runs N member simulations — variants of one study, such as
// a policy sweep over a shared (workload, seed) — in lockstep: every
// member advances through the same cycle window together, one chunk at a
// time. The chunk loop fans members out across goroutines behind
// deterministic barriers, so a gang's aggregate simulated cycles per
// second grows with the cores available. Every member's observable
// output is bit-identical to a solo Session over the same Options — the
// invariant internal/simtest (DiffGang) exists to enforce.
//
// A gang is N Sessions: each member is an ordinary Session built exactly
// as Open builds it, and every per-member call delegates to it, so
// Session.Step is the only stepping code. Members share nothing; each
// synthesises its own instruction streams.
//
// Lifecycle mirrors Session, widened: OpenGang -> (Step | StepContext |
// Snapshot | Observe | ResetMeasurement | FinishMember)* -> Finish.
// Drive a gang from one goroutine; the parallelism inside Step is the
// session's own, invisible to callers, and results are independent of
// both SetParallelism and GOMAXPROCS (test-enforced).
type GangSession struct {
	members []*Session
	results []*Result

	cycle    uint64
	parallel int
	// active is the scratch list of open members, rebuilt each Step.
	active []*Session
}

// gangStride is the internal lockstep chunk: members run this many
// cycles between barriers. Barriers are where cancellation is observed,
// so the stride bounds cancellation latency. Results never depend on it
// (chunking is invariant, test-enforced).
const gangStride = 2048

// OpenGang builds one machine per member, each exactly as Open builds
// it, and returns the gang positioned at cycle zero. Members may differ
// in any Options field. The gang's internal parallelism defaults to
// min(GOMAXPROCS, width); SetParallelism overrides it.
func OpenGang(opts []Options) (*GangSession, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one member")
	}
	g := &GangSession{
		members:  make([]*Session, len(opts)),
		results:  make([]*Result, len(opts)),
		parallel: min(runtime.GOMAXPROCS(0), len(opts)),
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

// Parallelism returns the goroutine budget Step spreads members over.
func (g *GangSession) Parallelism() int { return g.parallel }

// SetParallelism bounds the goroutines Step uses (clamped to [1, width]).
// Results are independent of the setting — members are independent
// machines — so this is purely a throughput knob. Call it between Steps,
// not during one.
func (g *GangSession) SetParallelism(n int) {
	g.parallel = max(1, min(n, len(g.members)))
}

// Step advances every open member by n cycles in lockstep, firing each
// member's due probes after each of its cycles. Probe functions run on
// the goroutine stepping their member: probes of different members may
// fire concurrently with each other (never with probes of their own
// member), so a probe must touch only its own member's state — the
// Sample it receives and data private to that member.
func (g *GangSession) Step(n uint64) {
	// Background contexts never cancel, so the error is impossible.
	_, _ = g.StepContext(context.Background(), n)
}

// StepContext is Step with cooperative cancellation: it checks ctx at
// every internal chunk barrier and returns the cycles actually stepped
// together with ctx's error when cancelled early. All open members
// always stop at the same lockstep cycle, so a cancelled gang is still
// consistent — stepping it again (or finishing it) behaves exactly as
// if the original Step had been issued in smaller chunks.
func (g *GangSession) StepContext(ctx context.Context, n uint64) (uint64, error) {
	g.active = g.active[:0]
	for _, s := range g.members {
		if !s.finished {
			g.active = append(g.active, s)
		}
	}
	if len(g.active) == 0 {
		panic("sim: Step on a finished gang session")
	}
	var done uint64
	for done < n {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		c := min(n-done, gangStride)
		g.runChunk(c)
		done += c
	}
	return done, nil
}

// runChunk steps every open member's Session by c cycles, striding
// members across the parallelism budget, then waits for all of them (the
// deterministic barrier).
func (g *GangSession) runChunk(c uint64) {
	act := g.active
	if p := min(g.parallel, len(act)); p > 1 {
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(act); k += p {
					act[k].Step(c)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for _, s := range act {
			s.Step(c)
		}
	}
	g.cycle += c
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
// invariants and Step for the gang's concurrency contract. Probes may
// be added to any unfinished member at any point before it finishes.
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

// RunGang executes one simulation per member to completion in lockstep,
// bit-identical to running each member alone (test-enforced); Run is
// RunGang of width 1. All members must share one cycle budget and
// warm-up length (gang batching groups jobs that way).
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
	g, err := OpenGang(opts)
	if err != nil {
		return nil, err
	}
	if w := opts[0].Warmup; w > 0 {
		g.Step(w)
		g.ResetMeasurement()
	}
	recs := make([]*Recorder, len(opts))
	for m, o := range opts {
		if o.Interval > 0 {
			// Registered after warm-up so each member's series covers
			// exactly the measured window, firing at measured cycles
			// Interval, 2*Interval, ...
			recs[m] = &Recorder{OnPoint: o.OnSample}
			if err := g.Observe(m, recs[m].Probe(o.Interval)); err != nil {
				return nil, err
			}
		}
	}
	g.Step(opts[0].Cycles)
	results, err := g.Finish()
	if err != nil {
		return nil, err
	}
	for m, rec := range recs {
		if rec != nil {
			results[m].Samples = rec.Points
		}
	}
	return results, nil
}
