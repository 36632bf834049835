// Package policy implements the IFetch policies the pipeline consults on
// long-latency loads: the baseline ICOUNT, speculative FLUSH with a fixed
// trigger (FLUSH-S<n>), non-speculative FLUSH (FLUSH-NS), STALL (STALL-S<n>)
// and the paper's adaptive MFLUSH.
//
// Every policy orders threads by ICOUNT (the pipeline's fetch stage does
// that unconditionally); what a policy adds is the paper's taxonomy of
// long-latency-load handling, a Detection Moment times a Response Action.
// Here that product is one pair of per-load deadlines. When a correct-path
// load misses the L1 data cache, the policy gives it
//
//   - a stall deadline, from which its thread fetch-stalls but keeps
//     executing: IssuedAt+n+1 for STALL-S<n>, IssuedAt+Suspicious()+1
//     (the Preventive State) for MFLUSH;
//   - a flush deadline, from which everything younger than the load is
//     squashed: IssuedAt+n+1 for FLUSH-S<n>, IssuedAt+Barrier(pred)+1 for
//     MFLUSH, with pred read from the bank's MCReg at miss time. FLUSH-NS
//     has no fixed flush deadline: the L2 miss signal makes it due.
//
// ICOUNT is the policy with no deadlines; it tracks nothing.
package policy

import (
	"fmt"
	"math"

	"repro/internal/config"
)

// LoadInfo is the policy-visible state of one outstanding long-latency
// load. The pipeline allocates one per load that misses the L1 data cache
// and keeps its fields current.
type LoadInfo struct {
	// Tid is the core-local hardware context that issued the load.
	Tid int
	// Seq is the load's per-thread program-order sequence number;
	// a flush squashes everything younger.
	Seq uint64
	// IssuedAt is the cycle the load first issued from the load/store
	// queue; Detection Moment deltas are measured from here.
	IssuedAt uint64
	// Bank is the shared-L2 bank serving the access (the MFLUSH MCReg
	// index).
	Bank int
	// TLBMiss records that the load paid a TLB walk before accessing
	// the hierarchy; adaptive policies exclude such latencies from
	// their L2-latency predictors.
	TLBMiss bool
	// L2MissDetected becomes true when the L2 tag check misses (the
	// non-speculative Detection Moment); every policy but ICOUNT
	// records it.
	L2MissDetected bool
	// Resolved, ResolvedAt and L2Hit describe completion.
	Resolved   bool
	ResolvedAt uint64
	L2Hit      bool
}

// Elapsed returns the cycles the load has been outstanding at cycle now.
func (li *LoadInfo) Elapsed(now uint64) uint64 {
	if now < li.IssuedAt {
		return 0
	}
	return now - li.IssuedAt
}

// Action is a per-thread fetch directive.
type Action uint8

const (
	// ActNone requests normal fetch for the thread.
	ActNone Action = iota
	// ActStall requests that the thread fetch no new instructions but
	// keep executing what it has (the STALL response action and the
	// MFLUSH Preventive State).
	ActStall
	// ActFlush requests that every instruction younger than the
	// offending load be squashed and the thread fetch-stalled until
	// that load resolves (the FLUSH response action).
	ActFlush
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActStall:
		return "stall"
	case ActFlush:
		return "flush"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Directive is the desired state for one thread this cycle. The pipeline
// reconciles: ActFlush is edge-triggered (ignored while the thread is
// already flush-stalled), ActStall and ActNone are level-triggered.
type Directive struct {
	Tid    int
	Action Action
	// Load is the offending load for ActFlush.
	Load *LoadInfo
}

// never is the deadline of a Detection Moment a policy does not have.
const never = math.MaxUint64

// Policy is the IFetch policy of one core. It is deterministic and cheap:
// Tick runs on every cycle the core is awake.
//
// A core whose last tick changed nothing sleeps until its next event
// (pipeline.Core.Advance), so Tick is not called on the cycles it sleeps
// through. NextEvent bounds that sleep from the policy's side, and Skip
// accounts for the missed calls.
type Policy struct {
	// stallAfter and flushAfter are the fixed Detection Moments: a load
	// outstanding for more than that many cycles directs a stall or a
	// flush. never means the policy has no such moment.
	stallAfter, flushAfter uint64
	// onMiss makes the L2 miss signal a load's flush moment (FLUSH-NS).
	onMiss bool
	// mcreg, when non-nil, gives each load the flush deadline of env's
	// Barrier for the bank's MCReg prediction (MFLUSH).
	mcreg *MCRegFile
	env   OperationalEnvironment
	// loads[tid] holds the thread's tracked loads in issue order; nil
	// for ICOUNT, which tracks nothing.
	loads [][]trackedLoad
	out   []Directive

	// Telemetry. lastFlushes and lastStalls count the flush and stall
	// directives of the last Tick, which Skip repeats.
	predictions uint64
	updates     uint64
	flushes     uint64
	preventive  uint64
	lastFlushes uint64
	lastStalls  uint64
}

// trackedLoad is one outstanding L1-missing load with its deadlines: the
// first cycles at which it directs a stall and a flush.
type trackedLoad struct {
	li               *LoadInfo
	stallAt, flushAt uint64
}

// NewICOUNT returns the ICOUNT baseline: fetch priority by instruction
// count only, no long-latency-load handling.
func NewICOUNT() *Policy { return &Policy{} }

// NewFlushS returns speculative FLUSH: a thread is flushed once any of its
// loads has been outstanding for more than trigger cycles.
func NewFlushS(threads int, trigger int) *Policy {
	if trigger <= 0 {
		panic("policy: FLUSH-S trigger must be positive")
	}
	return newTracking(threads, never, uint64(trigger))
}

// NewFlushNS returns non-speculative FLUSH: a thread is flushed when the
// L2 tag check reports a miss.
func NewFlushNS(threads int) *Policy {
	p := newTracking(threads, never, never)
	p.onMiss = true
	return p
}

// NewStall returns the STALL policy with a delay-after-issue trigger: a
// thread with a load past the trigger stops fetching (keeping its
// resources) until the load resolves.
func NewStall(threads int, trigger int) *Policy {
	if trigger <= 0 {
		panic("policy: STALL trigger must be positive")
	}
	return newTracking(threads, uint64(trigger), never)
}

// NewMFLUSH returns the paper's adaptive policy for one core of the given
// machine, with historyLen MCReg entries per bank: 1 is the published
// design, deeper histories the paper's optional configuration. A load
// outstanding past the suspicious threshold puts its thread in the
// Preventive State (a fetch stall); one outstanding past its Barrier,
// derived from its bank's MCReg prediction at miss time, flushes it. The
// MCReg registers start at MIN, the uncontended L2 hit latency.
func NewMFLUSH(cfg *config.Config, historyLen int) *Policy {
	env := EnvironmentFor(cfg)
	p := newTracking(cfg.Core.ThreadsPerCore, uint64(env.Suspicious()), never)
	p.env = env
	p.mcreg = NewMCRegFile(cfg.Mem.L2.Banks, historyLen, env.Min)
	return p
}

func newTracking(threads int, stallAfter, flushAfter uint64) *Policy {
	return &Policy{stallAfter: stallAfter, flushAfter: flushAfter, loads: make([][]trackedLoad, threads)}
}

// MCReg returns MFLUSH's register file, nil for every other policy.
//
//mflush:hotpath-ok
func (p *Policy) MCReg() *MCRegFile { return p.mcreg }

// OnL1Miss is called when a correct-path load misses the L1 data cache and
// enters the shared hierarchy: the policy tracks it with its deadlines.
//
//mflush:hotpath
func (p *Policy) OnL1Miss(li *LoadInfo, _ uint64) {
	if p.loads == nil {
		return
	}
	l := trackedLoad{li: li, stallAt: deadline(li.IssuedAt, p.stallAfter), flushAt: deadline(li.IssuedAt, p.flushAfter)}
	if p.mcreg != nil {
		p.predictions++
		l.flushAt = deadline(li.IssuedAt, uint64(p.env.Barrier(p.mcreg.Predict(li.Bank))))
	}
	p.loads[li.Tid] = append(p.loads[li.Tid], l)
}

// deadline returns the first cycle a load issued at issued has been
// outstanding for more than after cycles.
//
//mflush:hotpath
func deadline(issued, after uint64) uint64 {
	if after == never {
		return never
	}
	return issued + after + 1
}

// OnL2MissDetected is called when the shared L2 tag check misses for an
// outstanding load. The signal is recorded on the load; it is FLUSH-NS's
// Detection Moment and no other policy's (MFLUSH reacting to it would
// turn into FLUSH-NS for true misses and forfeit the energy advantage of
// its later, smaller flushes).
//
//mflush:hotpath
func (p *Policy) OnL2MissDetected(li *LoadInfo, _ uint64) {
	if p.loads == nil {
		return
	}
	li.L2MissDetected = true
	if !p.onMiss {
		return
	}
	for i, l := range p.loads[li.Tid] {
		if l.li == li {
			p.loads[li.Tid][i].flushAt = 0 // due from now on
			return
		}
	}
}

// OnResolve is called when the load's data arrives. It ends the load's
// tracking; under MFLUSH an L2 hit whose latency no TLB walk distorted
// trains its bank's MCReg with the observed latency.
//
//mflush:hotpath
func (p *Policy) OnResolve(li *LoadInfo, _ uint64) {
	p.drop(li)
	if p.mcreg != nil && li.L2Hit && !li.TLBMiss {
		p.mcreg.Update(li.Bank, int(li.ResolvedAt-li.IssuedAt))
		p.updates++
	}
}

// OnSquash is called when the load itself is squashed (by a branch
// mispredict or an older flush) while outstanding.
//
//mflush:hotpath
func (p *Policy) OnSquash(li *LoadInfo) { p.drop(li) }

//mflush:hotpath
func (p *Policy) drop(li *LoadInfo) {
	if p.loads == nil {
		return
	}
	s := p.loads[li.Tid]
	for i := range s {
		if s[i].li == li {
			p.loads[li.Tid] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

// Tick returns the directives for cycle now: one per thread for every
// policy but ICOUNT, which returns none. A thread's oldest load whose
// flush deadline has come directs a flush; failing that, any load whose
// stall deadline has come directs a stall; otherwise the thread fetches
// normally.
//
//mflush:hotpath
func (p *Policy) Tick(now uint64) []Directive {
	p.out = p.out[:0]
	p.lastFlushes, p.lastStalls = 0, 0
	for tid, loads := range p.loads {
		d := Directive{Tid: tid}
		for i := range loads {
			if now >= loads[i].flushAt {
				d.Action, d.Load = ActFlush, loads[i].li
				break
			}
			if now >= loads[i].stallAt {
				d.Action = ActStall
			}
		}
		switch d.Action {
		case ActFlush:
			p.lastFlushes++
		case ActStall:
			p.lastStalls++
		}
		p.out = append(p.out, d)
	}
	p.flushes += p.lastFlushes
	p.preventive += p.lastStalls
	return p.out
}

// NextEvent returns the earliest cycle after now at which Tick could
// return directives different from Tick(now)'s, given no On* call in
// between: the nearest deadline still to come. math.MaxUint64 means only
// an On* call can change them.
//
//mflush:hotpath
func (p *Policy) NextEvent(now uint64) uint64 {
	next := uint64(never)
	for _, loads := range p.loads {
		for _, l := range loads {
			if l.stallAt > now {
				next = min(next, l.stallAt)
			}
			if l.flushAt > now {
				next = min(next, l.flushAt)
			}
		}
	}
	return next
}

// Skip accounts for n consecutive cycles on which Tick was not called
// because the core slept. Each would have returned the directives of the
// last Tick call, so the telemetry counts them as Tick would have.
//
//mflush:hotpath
func (p *Policy) Skip(n uint64) {
	p.flushes += n * p.lastFlushes
	p.preventive += n * p.lastStalls
}

// Telemetry returns internal event counts: MCReg latency predictions made,
// MCReg updates, flush directives and stall (for MFLUSH, Preventive
// State) directives, one per thread per cycle.
func (p *Policy) Telemetry() (predictions, updates, flushes, stalls uint64) {
	return p.predictions, p.updates, p.flushes, p.preventive
}
