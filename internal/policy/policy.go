// Package policy defines the IFetch-policy interface through which the
// pipeline consults its instruction fetch policy, and implements the
// baseline policies from the paper: ICOUNT, speculative FLUSH with a fixed
// trigger (FLUSH-SX), non-speculative FLUSH (FLUSH-NS) and STALL.
//
// All policies are layered on top of ICOUNT thread ordering (which the
// pipeline's fetch stage applies unconditionally); what a Policy adds is
// the handling of long-latency loads: which threads to fetch-stall and
// which to flush, per the paper's Detection Moment / Response Action
// taxonomy.
package policy

import (
	"fmt"
	"math"
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
	// non-speculative Detection Moment).
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
// already flush-stalled), ActStall/ActNone are level-triggered.
type Directive struct {
	Tid    int
	Action Action
	// Load is the offending load for ActFlush.
	Load *LoadInfo
}

// Policy is consulted by one core's pipeline. Implementations must be
// deterministic and cheap: Tick runs on every cycle the core is awake.
//
// A core whose last tick changed nothing sleeps until its next event
// (pipeline.Core.Advance), so Tick is not called on the cycles it sleeps
// through. NextEvent bounds that sleep from the policy's side, and Skip
// accounts for the missed calls.
type Policy interface {
	// OnL1Miss is called when a load misses the L1 data cache and
	// enters the shared hierarchy.
	OnL1Miss(li *LoadInfo, now uint64)
	// OnL2MissDetected is called when the shared L2 tag check misses.
	OnL2MissDetected(li *LoadInfo, now uint64)
	// OnResolve is called when the load's data arrives.
	OnResolve(li *LoadInfo, now uint64)
	// OnSquash is called when the load itself is squashed (by a branch
	// mispredict or an older flush) while outstanding.
	OnSquash(li *LoadInfo)
	// Tick returns the directives for this cycle. Returning no
	// directive for a thread means ActNone.
	Tick(now uint64) []Directive
	// NextEvent returns the earliest cycle after now at which Tick could
	// return directives different from Tick(now)'s, given no On* call in
	// between; math.MaxUint64 if only an On* call can change them.
	NextEvent(now uint64) uint64
	// Skip accounts for n consecutive cycles on which Tick was not
	// called because the core slept. Each would have returned the
	// directives of the last Tick call.
	Skip(n uint64)
}

// tracker is the shared bookkeeping for load-aware policies: the set of
// outstanding L1-missing loads per thread, in issue order.
type tracker struct {
	loads [][]*LoadInfo
}

func newTracker(threads int) tracker {
	return tracker{loads: make([][]*LoadInfo, threads)}
}

func (t *tracker) add(li *LoadInfo) {
	t.loads[li.Tid] = append(t.loads[li.Tid], li)
}

func (t *tracker) remove(li *LoadInfo) {
	s := t.loads[li.Tid]
	for i, x := range s {
		if x == li {
			t.loads[li.Tid] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

// nextPast returns the earliest cycle after now at which a tracked load
// will have been outstanding for more than trigger cycles.
func (t *tracker) nextPast(now, trigger uint64) uint64 {
	next := uint64(math.MaxUint64)
	for _, loads := range t.loads {
		for _, li := range loads {
			if at := li.IssuedAt + trigger + 1; at > now && at < next {
				next = at
			}
		}
	}
	return next
}

// oldest returns the earliest-issued outstanding load for tid, or nil.
func (t *tracker) oldest(tid int) *LoadInfo {
	if len(t.loads[tid]) == 0 {
		return nil
	}
	return t.loads[tid][0]
}

// ICOUNT is the baseline policy: fetch priority by instruction count only,
// no long-latency-load handling.
type ICOUNT struct{}

// NewICOUNT returns the ICOUNT baseline.
func NewICOUNT() *ICOUNT { return &ICOUNT{} }

// OnL1Miss implements Policy.
func (*ICOUNT) OnL1Miss(*LoadInfo, uint64) {}

// OnL2MissDetected implements Policy.
func (*ICOUNT) OnL2MissDetected(*LoadInfo, uint64) {}

// OnResolve implements Policy.
func (*ICOUNT) OnResolve(*LoadInfo, uint64) {}

// OnSquash implements Policy.
func (*ICOUNT) OnSquash(*LoadInfo) {}

// Tick implements Policy.
func (*ICOUNT) Tick(uint64) []Directive { return nil }

// NextEvent implements Policy: ICOUNT never directs anything.
func (*ICOUNT) NextEvent(uint64) uint64 { return math.MaxUint64 }

// Skip implements Policy.
func (*ICOUNT) Skip(uint64) {}

// Flush implements the FLUSH response action with either the speculative
// delay-after-issue Detection Moment (Trigger > 0: FLUSH-S<Trigger>) or
// the non-speculative trigger-on-miss Detection Moment (NonSpec: FLUSH-NS).
type Flush struct {
	trigger uint64
	nonSpec bool
	tr      tracker
	out     []Directive
}

// NewFlushS returns speculative FLUSH: a thread is flushed once any of its
// loads has been outstanding for more than trigger cycles.
func NewFlushS(threads int, trigger int) *Flush {
	if trigger <= 0 {
		panic("policy: FLUSH-S trigger must be positive")
	}
	return &Flush{trigger: uint64(trigger), tr: newTracker(threads)}
}

// NewFlushNS returns non-speculative FLUSH: a thread is flushed when the
// L2 tag check reports a miss.
func NewFlushNS(threads int) *Flush {
	return &Flush{nonSpec: true, tr: newTracker(threads)}
}

// OnL1Miss implements Policy.
func (f *Flush) OnL1Miss(li *LoadInfo, _ uint64) { f.tr.add(li) }

// OnL2MissDetected implements Policy.
func (f *Flush) OnL2MissDetected(li *LoadInfo, _ uint64) { li.L2MissDetected = true }

// OnResolve implements Policy.
func (f *Flush) OnResolve(li *LoadInfo, _ uint64) { f.tr.remove(li) }

// OnSquash implements Policy.
func (f *Flush) OnSquash(li *LoadInfo) { f.tr.remove(li) }

// Tick implements Policy: the oldest outstanding load past the Detection
// Moment triggers a flush for its thread.
func (f *Flush) Tick(now uint64) []Directive {
	f.out = f.out[:0]
	for tid := range f.tr.loads {
		for _, li := range f.tr.loads[tid] {
			triggered := false
			if f.nonSpec {
				triggered = li.L2MissDetected
			} else {
				triggered = li.Elapsed(now) > f.trigger
			}
			if triggered {
				f.out = append(f.out, Directive{Tid: tid, Action: ActFlush, Load: li})
				break
			}
		}
	}
	return f.out
}

// NextEvent implements Policy: FLUSH-S directives change when a load
// passes the trigger; FLUSH-NS directives change only on the miss signal.
func (f *Flush) NextEvent(now uint64) uint64 {
	if f.nonSpec {
		return math.MaxUint64
	}
	return f.tr.nextPast(now, f.trigger)
}

// Skip implements Policy.
func (*Flush) Skip(uint64) {}

// Stall implements the STALL response action: a thread with a load past
// the trigger stops fetching (keeping its resources) until it resolves.
type Stall struct {
	trigger uint64
	tr      tracker
	out     []Directive
}

// NewStall returns the STALL policy with a delay-after-issue trigger.
func NewStall(threads int, trigger int) *Stall {
	if trigger <= 0 {
		panic("policy: STALL trigger must be positive")
	}
	return &Stall{trigger: uint64(trigger), tr: newTracker(threads)}
}

// OnL1Miss implements Policy.
func (s *Stall) OnL1Miss(li *LoadInfo, _ uint64) { s.tr.add(li) }

// OnL2MissDetected implements Policy.
func (*Stall) OnL2MissDetected(*LoadInfo, uint64) {}

// OnResolve implements Policy.
func (s *Stall) OnResolve(li *LoadInfo, _ uint64) { s.tr.remove(li) }

// OnSquash implements Policy.
func (s *Stall) OnSquash(li *LoadInfo) { s.tr.remove(li) }

// Tick implements Policy.
func (s *Stall) Tick(now uint64) []Directive {
	s.out = s.out[:0]
	for tid := range s.tr.loads {
		act := ActNone
		for _, li := range s.tr.loads[tid] {
			if li.Elapsed(now) > s.trigger {
				act = ActStall
				break
			}
		}
		s.out = append(s.out, Directive{Tid: tid, Action: act})
	}
	return s.out
}

// NextEvent implements Policy: directives change when a load passes the
// trigger.
func (s *Stall) NextEvent(now uint64) uint64 { return s.tr.nextPast(now, s.trigger) }

// Skip implements Policy.
func (*Stall) Skip(uint64) {}

// Outstanding returns the number of tracked loads for tid; exposed for the
// pipeline's consistency checks and tests.
func (f *Flush) Outstanding(tid int) int { return len(f.tr.loads[tid]) }

// Outstanding returns the number of tracked loads for tid.
func (s *Stall) Outstanding(tid int) int { return len(s.tr.loads[tid]) }
