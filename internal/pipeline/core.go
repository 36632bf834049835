package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
)

// frontQCapacity bounds the per-thread fetch buffer ahead of rename.
const frontQCapacity = 32

// mshrRetryDelay is the load replay delay when the MSHR file is full.
const mshrRetryDelay = 4

// wheelSize bounds the execution completion horizon (longest fixed
// execution latency plus L1 hit time). It is the width of the wheel's
// occupancy word, Core.wheelBusy.
const wheelSize = 64

// depsCap is the initial wakeup-list capacity of a new uop. Producers
// behind a long miss commonly collect several consumers; starting at 8
// means few lists ever grow, so the pool reaches steady capacity within
// warm-up instead of growing lists one doubling at a time.
const depsCap = 8

// Typed counter IDs for every per-cycle-path event (stats.Set.Bump is a
// dense array add; the string names remain the reporting API).
var (
	cFlushResolvedHit      = stats.MustRegister("flush.resolved_hit")
	cFlushResolvedMiss     = stats.MustRegister("flush.resolved_miss")
	cCommitBlockedMem      = stats.MustRegister("commit.blocked.mem")
	cCommitBlockedQueued   = stats.MustRegister("commit.blocked.queued")
	cCommitBlockedFrontend = stats.MustRegister("commit.blocked.frontend")
	cCommitBlockedExec     = stats.MustRegister("commit.blocked.exec")
	cL1DStoreHits          = stats.MustRegister("l1d.store_hits")
	cL1DStoreMisses        = stats.MustRegister("l1d.store_misses")
	cBranches              = stats.MustRegister("branches")
	cMispredicts           = stats.MustRegister("mispredicts")
	cDTLBMisses            = stats.MustRegister("dtlb.misses")
	cL1DLoadHits           = stats.MustRegister("l1d.load_hits")
	cL1DLoadMisses         = stats.MustRegister("l1d.load_misses")
	cMSHRFullRetries       = stats.MustRegister("mshr.full_retries")
	cMSHRMerges            = stats.MustRegister("mshr.merges")
	cRenameBlockedQueue    = stats.MustRegister("rename.blocked.queue")
	cRenameBlockedROB      = stats.MustRegister("rename.blocked.rob")
	cRenameBlockedRegs     = stats.MustRegister("rename.blocked.regs")
	cPolicyStallCycles     = stats.MustRegister("policy.stall_cycles")
	cPolicyFlushes         = stats.MustRegister("policy.flushes")
	cFetchBlockedICache    = stats.MustRegister("fetch.blocked.icache")
	cFetchBlockedStall     = stats.MustRegister("fetch.blocked.stall")
	cFetchBlockedPolicy    = stats.MustRegister("fetch.blocked.policy")
	cFetchBlockedFlush     = stats.MustRegister("fetch.blocked.flush")
	cFetchBlockedFrontQ    = stats.MustRegister("fetch.blocked.frontq")
	cITLBMisses            = stats.MustRegister("itlb.misses")
	cL1IMisses             = stats.MustRegister("l1i.misses")
	cL1IHits               = stats.MustRegister("l1i.hits")
)

// Core is one SMT core.
type Core struct {
	ID  int
	cfg *config.Config
	pol *policy.Policy

	l2 *mem.L2System

	threads []*thread

	intQ, fpQ, lsQ *queue
	// The rename pool is shared (PhysRegs minus per-thread architectural
	// state) but each context is guaranteed RegReservePerThread
	// registers: heldPRegs tracks per-thread usage against pregCap.
	freePRegs int
	heldPRegs []int
	pregCap   int

	pred *branch.Predictor
	l1i  *cache.Cache
	l1d  *cache.Cache
	itlb *cache.TLB
	dtlb *cache.TLB
	mshr *cache.MSHR
	// slotWaiters[slot] holds the loads blocked on the line tracked by
	// MSHR slot (primary + merged); slotLoads[slot] the policy
	// descriptors of its correct-path loads, for routing L2
	// miss-detection signals. Indexed by MSHR slot so the per-cycle path
	// touches no maps; slices are truncated in place when a line
	// resolves, keeping their capacity.
	slotWaiters [][]*UOp
	slotLoads   [][]*policy.LoadInfo

	wheel [wheelSize][]*UOp
	// wheelBusy has bit i set iff wheel[i] is non-empty.
	wheelBusy uint64

	// pendingSubmits delays L2 requests by the L1 tag-check time, so the
	// minimum load-issue-to-L2-hit latency matches the configured L1
	// miss latency (paper: 22 cycles).
	pendingSubmits []delayedSubmit

	energy energy.Account
	stats  stats.Set

	pageBits uint

	// Recycling pools and per-cycle scratch. All per-core (cores are
	// ticked sequentially within a chip), so no locking is needed.
	uopFree     []*UOp
	loadFree    []*policy.LoadInfo
	reqPool     mem.RequestPool
	fetchOrder  []int
	renameBlock []bool

	// Event-horizon sleep (see Advance). A sleeping core has wakeAt > 0
	// and has charged the cycles before sleptFrom to its counters.
	// probing marks that the last tick was idle and the current one, due
	// to repeat it, is measured against probeBase. idleDelta is what one
	// idle tick adds to the counters.
	wakeAt    uint64
	sleptFrom uint64
	probing   bool
	probeBase []uint64
	idleDelta []stats.Delta
}

type delayedSubmit struct {
	req *mem.Request
	at  uint64
}

type thread struct {
	id  int
	src trace.Source
	bb  *trace.BBDict
	win window

	seq     uint64
	icount  int
	rob     *ring
	frontQ  *ring
	regProd [isa.NumArchRegs]uopRef

	// Fetch blocking conditions.
	fetchStallUntil   uint64
	icacheWait        *mem.Request
	pendingMispredict *UOp
	wrongPath         bool
	wpPC              uint64
	lastFetchLine     uint64

	// Policy-driven state.
	policyStalled bool
	flushStalled  bool
	flushLoad     *policy.LoadInfo

	committed uint64
	fetched   uint64
}

// New builds a core. sources supplies the correct-path stream per
// hardware context; dataBases gives the base of each context's data area,
// near which wrong-path loads and stores fall.
func New(id int, cfg *config.Config, pol *policy.Policy, l2 *mem.L2System,
	sources []trace.Source, dataBases []uint64) *Core {
	pageBits := uint(0)
	for 1<<pageBits < cfg.Mem.PageBytes {
		pageBits++
	}
	c := &Core{
		ID:   id,
		cfg:  cfg,
		l2:   l2,
		intQ: newQueue(cfg.Core.IntQueue),
		fpQ:  newQueue(cfg.Core.FPQueue),
		lsQ:  newQueue(cfg.Core.LSQueue),
		pred: branch.New(cfg.Core.PerceptronCount, cfg.Core.PerceptronHistory,
			cfg.Core.BTBEntries, cfg.Core.BTBAssoc, cfg.Core.RASEntries, cfg.Core.ThreadsPerCore),
		l1i:         cache.New(cfg.Mem.L1I),
		l1d:         cache.New(cfg.Mem.L1D),
		itlb:        cache.NewTLB(cfg.Mem.TLBEntries),
		dtlb:        cache.NewTLB(cfg.Mem.TLBEntries),
		mshr:        cache.NewMSHR(cfg.Core.MSHREntries),
		slotWaiters: make([][]*UOp, cfg.Core.MSHREntries),
		slotLoads:   make([][]*policy.LoadInfo, cfg.Core.MSHREntries),
		heldPRegs:   make([]int, cfg.Core.ThreadsPerCore),
		renameBlock: make([]bool, cfg.Core.ThreadsPerCore),
		pageBits:    pageBits,
	}
	for t := 0; t < cfg.Core.ThreadsPerCore; t++ {
		c.threads = append(c.threads, &thread{
			id:     t,
			bb:     &trace.BBDict{},
			win:    window{buf: make([]isa.Inst, cfg.Core.ROBPerThread+frontQCapacity+1)},
			rob:    newRing(cfg.Core.ROBPerThread),
			frontQ: newRing(frontQCapacity),
		})
	}
	c.Reset(pol, sources, dataBases)
	return c
}

// Reset readies the core for a new simulation with the given policy,
// sources and bases, leaving it exactly as New builds it: every queue,
// buffer, predictor, cache, TLB and counter is emptied in place, and the
// uops, load descriptors and delayed requests still in flight go back to
// the core's free lists. The configuration the core points to must still
// describe the machine it was built for.
func (c *Core) Reset(pol *policy.Policy, sources []trace.Source, dataBases []uint64) {
	cfg := c.cfg
	if len(sources) != cfg.Core.ThreadsPerCore || len(dataBases) != cfg.Core.ThreadsPerCore {
		panic(fmt.Sprintf("pipeline: core %d needs %d sources/bases, got %d/%d",
			c.ID, cfg.Core.ThreadsPerCore, len(sources), len(dataBases)))
	}
	for _, t := range c.threads {
		// A flush-stalled thread's load descriptor would stay out of its
		// uop's recycling (freeUOp); the stall ends here.
		t.flushLoad = nil
		for t.rob.len() > 0 {
			c.recycle(t.rob.popFront())
		}
		for t.frontQ.len() > 0 {
			c.recycle(t.frontQ.popFront())
		}
	}
	for i := range c.wheel {
		c.wheel[i] = c.recycleAll(c.wheel[i])
	}
	c.wheelBusy = 0
	for i := range c.slotWaiters {
		c.slotWaiters[i] = c.recycleAll(c.slotWaiters[i])
		clear(c.slotLoads[i][:cap(c.slotLoads[i])])
		c.slotLoads[i] = c.slotLoads[i][:0]
	}
	for _, d := range c.pendingSubmits {
		c.reqPool.Put(d.req)
	}
	clear(c.pendingSubmits[:cap(c.pendingSubmits)])
	c.pendingSubmits = c.pendingSubmits[:0]

	c.pol = pol
	c.intQ.reset()
	c.fpQ.reset()
	c.lsQ.reset()
	c.freePRegs = cfg.Core.PhysRegs - cfg.Core.ThreadsPerCore*isa.NumArchRegs
	clear(c.heldPRegs)
	c.pregCap = max(c.freePRegs-cfg.Core.RegReservePerThread*(cfg.Core.ThreadsPerCore-1), 1)
	c.pred.Reset()
	c.l1i.Reset()
	c.l1d.Reset()
	c.itlb.Reset()
	c.dtlb.Reset()
	c.mshr.Reset()
	c.energy = energy.Account{}
	c.stats.Reset()
	c.fetchOrder = c.fetchOrder[:0]
	clear(c.renameBlock)
	c.wakeAt, c.sleptFrom, c.probing = 0, 0, false
	c.probeBase, c.idleDelta = c.probeBase[:0], c.idleDelta[:0]
	for i, t := range c.threads {
		clear(t.win.buf)
		t.rob.reset()
		t.frontQ.reset()
		*t = thread{
			id:     i,
			src:    sources[i],
			bb:     t.bb,
			win:    window{buf: t.win.buf},
			rob:    t.rob,
			frontQ: t.frontQ,
		}
		// Wrong-path pollution stays within a few pages of the
		// thread's own space: wrong paths re-execute nearby code on
		// stale pointers, they do not wander the whole heap (and a
		// wider span would thrash the TLB unrealistically).
		*t.bb = *trace.NewBBDict(dataBases[i], 2*uint64(cfg.Mem.PageBytes))
	}
}

// Policy returns the core's IFetch policy.
func (c *Core) Policy() *policy.Policy { return c.pol }

// Energy returns the core's energy account.
func (c *Core) Energy() *energy.Account { return &c.energy }

// Stats returns the core's event counters.
func (c *Core) Stats() *stats.Set { return &c.stats }

// AppendCommitted appends the per-thread committed counts to dst and
// returns the extended slice; per-interval samplers pass dst[:0] of a
// reused buffer, so it allocates nothing.
func (c *Core) AppendCommitted(dst []uint64) []uint64 {
	for _, t := range c.threads {
		dst = append(dst, t.committed)
	}
	return dst
}

// CommittedTotal returns the core-wide committed instruction count
// without allocating.
func (c *Core) CommittedTotal() uint64 {
	var n uint64
	for _, t := range c.threads {
		n += t.committed
	}
	return n
}

// lineOf returns the cache line address (64B lines throughout).
func (c *Core) lineOf(addr uint64) uint64 { return addr >> 6 }

// ---- recycling pools ----

// allocUOp takes a uop from the free list, or allocates one.
func (c *Core) allocUOp() *UOp {
	if n := len(c.uopFree); n > 0 {
		u := c.uopFree[n-1]
		c.uopFree = c.uopFree[:n-1]
		u.pooled = false
		return u
	}
	return &UOp{deps: make([]uopRef, 0, depsCap)}
}

// freeUOp recycles a dead uop (committed, or squashed and no longer
// resident in the wheel or MSHR waiter lists). The generation bump
// invalidates every outstanding uopRef to it. The uop's LoadInfo rides
// along, except while the thread is still flush-stalled on it, and so
// does its emptied wakeup list's capacity.
func (c *Core) freeUOp(u *UOp) {
	if u.pooled {
		panic("pipeline: double free of uop")
	}
	if li := u.Load; li != nil && c.threads[u.Tid].flushLoad != li {
		*li = policy.LoadInfo{}
		c.loadFree = append(c.loadFree, li)
	}
	gen := u.Gen + 1
	*u = UOp{Gen: gen, pooled: true, deps: u.deps[:0]}
	c.uopFree = append(c.uopFree, u)
}

// recycle frees u unless it is already on the free list: Reset meets a
// uop once in its ROB and again in the wheel or an MSHR waiter list.
func (c *Core) recycle(u *UOp) {
	if !u.pooled {
		c.freeUOp(u)
	}
}

// recycleAll recycles every uop of list and returns it emptied.
func (c *Core) recycleAll(list []*UOp) []*UOp {
	for _, u := range list {
		c.recycle(u)
	}
	clear(list[:cap(list)])
	return list[:0]
}

// allocLoadInfo takes a LoadInfo from the free list, or allocates one.
func (c *Core) allocLoadInfo() *policy.LoadInfo {
	if n := len(c.loadFree); n > 0 {
		li := c.loadFree[n-1]
		c.loadFree = c.loadFree[:n-1]
		return li
	}
	return &policy.LoadInfo{}
}

// HandleResponse consumes one shared-L2 response addressed to this core.
// The request is recycled here: every request this core issues comes back
// exactly once as a response. A response wakes a sleeping core, except a
// store fill's: it only fills the L1 data cache, which no idle tick reads.
func (c *Core) HandleResponse(r *mem.Request, now uint64) {
	if !r.NoWake {
		c.wake(now)
	}
	switch {
	case r.IsInstr:
		c.l1i.Fill(r.Addr)
		for _, t := range c.threads {
			if t.icacheWait == r {
				t.icacheWait = nil
			}
		}
	case r.NoWake:
		c.l1d.Fill(r.Addr)
	default:
		c.l1d.Fill(r.Addr)
		line := c.lineOf(r.Addr)
		entry := c.mshr.Lookup(line)
		if entry == nil {
			panic(fmt.Sprintf("pipeline: response for line %#x without MSHR entry", line))
		}
		slot := entry.Slot()
		waiters := c.slotWaiters[slot]
		c.slotWaiters[slot] = waiters[:0]
		c.slotLoads[slot] = c.slotLoads[slot][:0]
		c.mshr.FreeEntry(entry)
		for _, u := range waiters {
			if u.Squashed {
				// The squash deferred recycling until the line
				// resolved; the uop leaves the waiter list here.
				c.freeUOp(u)
				continue
			}
			u.WaitingMem = false
			c.markExecuted(u, now)
			if li := u.Load; li != nil {
				li.Resolved = true
				li.ResolvedAt = now
				li.L2Hit = r.L2Hit
				c.pol.OnResolve(li, now)
				t := c.threads[u.Tid]
				if t.flushStalled && t.flushLoad == li {
					t.flushStalled = false
					t.flushLoad = nil
					if r.L2Hit {
						c.stats.Bump(cFlushResolvedHit, 1) // false miss
					} else {
						c.stats.Bump(cFlushResolvedMiss, 1)
					}
				}
			}
		}
	}
	c.reqPool.Put(r)
}

// HandleL2MissDetected forwards the non-speculative miss signal to the
// policy for every load waiting on the missing line.
func (c *Core) HandleL2MissDetected(r *mem.Request, now uint64) {
	if r.IsInstr || r.NoWake {
		return
	}
	entry := c.mshr.Lookup(c.lineOf(r.Addr))
	if entry == nil {
		return
	}
	c.wake(now)
	for _, li := range c.slotLoads[entry.Slot()] {
		if !li.Resolved {
			c.pol.OnL2MissDetected(li, now)
		}
	}
}

// submitDelayed schedules an L2 request for submission after the L1
// tag-check time has elapsed.
func (c *Core) submitDelayed(req *mem.Request, now uint64) {
	c.pendingSubmits = append(c.pendingSubmits, delayedSubmit{req: req, at: now + uint64(c.cfg.L1Latency)})
}

// flushSubmits hands the L2 every request whose L1 tag-check delay has
// elapsed, and reports whether there was one.
func (c *Core) flushSubmits(now uint64) bool {
	kept := c.pendingSubmits[:0]
	for _, d := range c.pendingSubmits {
		if d.at <= now {
			c.l2.Submit(d.req, now)
		} else {
			kept = append(kept, d)
		}
	}
	acted := len(kept) < len(c.pendingSubmits)
	c.pendingSubmits = kept
	return acted
}

// Tick advances the core one cycle, whether or not it sleeps (the
// lock-step form of Advance). It runs the stages in reverse pipeline order
// so a result produced this cycle is consumed no earlier than the next,
// and reports whether any stage acted: changed any state beyond bumping a
// counter. A tick that did not act only bumps the counters of the
// conditions that blocked it.
func (c *Core) Tick(now uint64) bool {
	submitted := c.flushSubmits(now)
	committed := c.commitStage(now)
	wrote := c.writebackStage(now)
	issued := c.issueStage(now)
	renamed := c.renameStage(now)
	directed := c.policyStage(now)
	fetched := c.fetchStage(now)
	return submitted || committed || wrote || issued || renamed || directed || fetched
}

// Advance is Tick under event-horizon stepping: it skips every cycle the
// core sleeps through. After a tick that did not act, nothing changes
// until the core's next event (nextEvent) unless the L2 delivers a
// response or a miss signal, which wake the core (wake). So the next tick
// repeats the idle one exactly. If the event leaves at least one cycle to
// sleep after it, that tick runs as a probe that measures what one idle
// tick adds to the counters, and the core then sleeps until the event. Settle and wake
// charge the slept cycles to the counters and the policy, so every
// counter reads as if the core had ticked on each of them.
func (c *Core) Advance(now uint64) {
	if c.wakeAt != 0 {
		if now < c.wakeAt {
			return
		}
		c.wake(now)
	}
	if c.Tick(now) {
		c.probing = false
		return
	}
	next := c.nextEvent(now)
	if c.probing {
		c.idleDelta = c.stats.AppendDeltas(c.idleDelta[:0], c.probeBase)
		c.probing = false
		c.wakeAt = next
		c.sleptFrom = now + 1
		return
	}
	if next > now+2 {
		c.probeBase = c.stats.AppendValues(c.probeBase[:0])
		c.probing = true
	}
}

// WakeAt returns the cycle a sleeping core next ticks, or 0 when it is
// awake.
func (c *Core) WakeAt() uint64 { return c.wakeAt }

// Settle charges the cycles a sleeping core has slept through before now
// to its counters (each as the idle tick measured by the probe) and to
// its policy (policy.Policy.Skip). The core keeps sleeping. Counters read
// exact values only on a settled core.
func (c *Core) Settle(now uint64) {
	if c.wakeAt == 0 || now <= c.sleptFrom {
		return
	}
	k := now - c.sleptFrom
	for _, d := range c.idleDelta {
		c.stats.Bump(d.ID, k*d.N)
	}
	c.pol.Skip(k)
	c.sleptFrom = now
}

// wake ends a sleep (charging it up to now) or abandons a probe: an
// outside event may make the next tick act, or bump a counter, which the
// probe would misread as idle.
func (c *Core) wake(now uint64) {
	if c.wakeAt != 0 {
		c.Settle(now)
		c.wakeAt = 0
	}
	c.probing = false
}

// nextEvent returns the earliest cycle after now at which tick could act,
// given that tick(now) did not and nothing outside the core intervenes:
// a delayed L2 submission falls due, a wheel slot completes, a ready uop
// leaves its retry delay, a front-end queue head reaches rename, a fetch
// stall ends, or the policy's directives change. Anything else that
// blocks an idle tick (a full queue, ROB or register file, an
// outstanding miss or icache fill, a flush) clears only when some tick
// acts or the L2 wakes the core. math.MaxUint64 means only the L2 can.
func (c *Core) nextEvent(now uint64) uint64 {
	next := c.pol.NextEvent(now)
	for _, d := range c.pendingSubmits {
		next = min(next, d.at)
	}
	// Rotate the slot of now+1 to bit 0: the lowest set bit is then the
	// distance to the next busy slot.
	if busy := bits.RotateLeft64(c.wheelBusy, -int((now+1)%wheelSize)); busy != 0 {
		next = min(next, now+1+uint64(bits.TrailingZeros64(busy)))
	}
	next = c.intQ.nextRetry(next, c.cfg.Core.IntUnits)
	next = c.fpQ.nextRetry(next, c.cfg.Core.FPUnits)
	next = c.lsQ.nextRetry(next, c.cfg.Core.LSUnits)
	for _, t := range c.threads {
		if u := t.frontQ.front(); u != nil {
			if at := c.renameReadyAt(u); at > now {
				next = min(next, at)
			}
		}
		if t.icacheWait == nil && t.fetchStallUntil > now {
			next = min(next, t.fetchStallUntil)
		}
	}
	return next
}

// renameReadyAt is the cycle the front-end pipe delivers u to rename.
func (c *Core) renameReadyAt(u *UOp) uint64 {
	return u.FetchedAt + uint64(c.cfg.Core.FrontEndStages)
}

// ---- commit ----

// commitStage retires ready ROB heads and reports whether it retired any.
func (c *Core) commitStage(now uint64) bool {
	width := c.cfg.Core.CommitWidth
	budget := width
	n := len(c.threads)
	idx := int(now) % n
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[idx]
		if idx++; idx == n {
			idx = 0
		}
		for budget > 0 {
			u := t.rob.front()
			if u == nil {
				break
			}
			if !u.Executed {
				switch {
				case u.WaitingMem:
					c.stats.Bump(cCommitBlockedMem, 1)
				case u.InQueue:
					c.stats.Bump(cCommitBlockedQueued, 1)
				case !u.Issued:
					c.stats.Bump(cCommitBlockedFrontend, 1)
				default:
					c.stats.Bump(cCommitBlockedExec, 1)
				}
				break
			}
			t.rob.popFront()
			t.win.retire()
			if u.HasPReg {
				c.freePRegs++
				c.heldPRegs[u.Tid]--
				u.HasPReg = false
			}
			t.committed++
			budget--
			c.energy.OnCommit()
			if u.Inst.Class == isa.ClassStore {
				c.commitStore(u, now)
			}
			// Retirement is the uop's last use; rename-table and source
			// references that still name it are invalidated by the
			// generation bump and read as "architectural", exactly as a
			// committed (Executed) producer did before recycling.
			c.freeUOp(u)
		}
	}
	return budget < width
}

// commitStore performs the store's cache write at retirement; misses
// generate fire-and-forget fill traffic through the shared system.
func (c *Core) commitStore(u *UOp, now uint64) {
	if c.l1d.Access(u.Inst.Addr) {
		c.stats.Bump(cL1DStoreHits, 1)
		return
	}
	c.stats.Bump(cL1DStoreMisses, 1)
	req := c.reqPool.Get()
	req.CoreID = c.ID
	req.ThreadID = u.Tid
	req.Addr = u.Inst.Addr
	req.NoWake = true
	req.MissLatency = u.Inst.MissLatency
	req.IssuedAt = now
	c.submitDelayed(req, now)
}

// ---- writeback ----

// writebackStage drains this cycle's wheel slot and reports whether it
// held any uop.
func (c *Core) writebackStage(now uint64) bool {
	slot := int(now % wheelSize)
	uops := c.wheel[slot]
	c.wheel[slot] = uops[:0]
	c.wheelBusy &^= 1 << slot
	for _, u := range uops {
		// Clear wheel residence per uop as it is processed: a branch
		// earlier in this slot may squash a uop later in it, and that
		// uop must stay recognisably in-wheel until reached here.
		u.InWheel = false
		if u.Squashed {
			c.freeUOp(u)
			continue
		}
		c.markExecuted(u, now)
		if u.Inst.Class.IsControl() {
			c.resolveControl(u, now)
		}
	}
	return len(uops) > 0
}

// markExecuted completes a uop: the result is produced, and each consumer
// whose last pending source this was becomes ready to issue. The
// physical register is held to commit.
func (c *Core) markExecuted(u *UOp, now uint64) {
	u.Executed = true
	for _, r := range u.deps {
		d := r.live()
		if d == nil || d.Squashed {
			continue
		}
		if d.waitSrc--; d.waitSrc == 0 {
			c.queueFor(d.Inst.Class).markReady(d)
		}
	}
	u.deps = u.deps[:0]
}

func (c *Core) resolveControl(u *UOp, now uint64) {
	t := c.threads[u.Tid]
	if u.WrongPath {
		return // wrong-path control never trains or redirects
	}
	c.pred.Resolve(&u.Inst)
	if u.Inst.Class == isa.ClassBranch {
		c.stats.Bump(cBranches, 1)
	}
	if u.MispredictedBranch {
		c.stats.Bump(cMispredicts, 1)
		c.squashYounger(t, u.Seq, false, now)
		if t.pendingMispredict == u {
			t.pendingMispredict = nil
			t.wrongPath = false
		}
		// Redirect: one dead cycle before fetch resumes on the correct
		// path (the front-end depth models the refill). A pending
		// wrong-path icache fill no longer gates fetch — the redirect
		// abandons it (the fill itself still completes).
		if t.fetchStallUntil < now+1 {
			t.fetchStallUntil = now + 1
		}
		t.icacheWait = nil
		t.lastFetchLine = 0
	}
}

// ---- issue ----

// issueStage reports whether any uop attempted to issue.
func (c *Core) issueStage(now uint64) bool {
	i := c.issueFrom(c.intQ, c.cfg.Core.IntUnits, now)
	f := c.issueFrom(c.fpQ, c.cfg.Core.FPUnits, now)
	m := c.issueFrom(c.lsQ, c.cfg.Core.LSUnits, now)
	return i || f || m
}

// issueFrom offers q's ready uops, oldest first, to up to units execution
// units. Only uops whose producers have all executed carry a ready bit,
// so the walk never touches a waiting uop; a uop still inside a retry
// delay (DTLB walk, full MSHR file) is skipped without spending a unit.
// Every attempt spends one, even one that leaves the uop queued behind a
// new retry delay. An issue clears the uop's bit in q.ready, not in the
// copied word being walked, so removal during the walk is safe. It
// reports whether it spent a unit.
func (c *Core) issueFrom(q *queue, units int, now uint64) bool {
	if units == 0 {
		return false
	}
	left := units
	for w, word := range q.ready {
		for ; word != 0; word &= word - 1 {
			u := q.slots[w<<6|bits.TrailingZeros64(word)]
			if u.RetryAt > now {
				continue
			}
			if q == c.lsQ {
				c.issueMem(u, now)
			} else {
				c.issueALU(q, u, now)
			}
			if left--; left == 0 {
				return true
			}
		}
	}
	return left < units
}

func (c *Core) issueALU(q *queue, u *UOp, now uint64) {
	q.remove(u)
	c.threads[u.Tid].icount--
	u.Issued = true
	c.schedule(u, now+uint64(u.Inst.Class.ExecLatency()))
}

func (c *Core) schedule(u *UOp, at uint64) {
	u.InWheel = true
	slot := at % wheelSize
	c.wheel[slot] = append(c.wheel[slot], u)
	c.wheelBusy |= 1 << slot
}

func (c *Core) issueMem(u *UOp, now uint64) {
	// Address translation first; a TLB walk delays the access.
	if !u.TLBDone {
		u.TLBDone = true
		if !c.dtlb.Access(u.Inst.Addr >> c.pageBits) {
			u.TLBMissed = true
			u.RetryAt = now + uint64(c.cfg.Mem.TLBMissLatency)
			c.stats.Bump(cDTLBMisses, 1)
			return // stays in the queue, retries after the walk
		}
	}

	if u.Inst.Class == isa.ClassStore {
		// Stores complete at address generation; the cache write
		// happens at commit.
		c.lsQ.remove(u)
		c.threads[u.Tid].icount--
		u.Issued = true
		c.schedule(u, now+1)
		return
	}

	if c.l1d.Access(u.Inst.Addr) {
		c.stats.Bump(cL1DLoadHits, 1)
		c.lsQ.remove(u)
		c.threads[u.Tid].icount--
		u.Issued = true
		c.schedule(u, now+uint64(c.cfg.L1Latency))
		return
	}

	// L1 miss: take an MSHR (or merge) and wait for the shared system.
	line := c.lineOf(u.Inst.Addr)
	entry, merged, ok := c.mshr.Allocate(line)
	if !ok {
		u.RetryAt = now + mshrRetryDelay
		c.stats.Bump(cMSHRFullRetries, 1)
		return
	}
	slot := entry.Slot()
	c.stats.Bump(cL1DLoadMisses, 1)
	c.lsQ.remove(u)
	c.threads[u.Tid].icount--
	u.Issued = true
	u.WaitingMem = true
	c.slotWaiters[slot] = append(c.slotWaiters[slot], u)

	if !merged {
		req := c.reqPool.Get()
		req.CoreID = c.ID
		req.ThreadID = u.Tid
		req.Addr = u.Inst.Addr
		// On an MSHR merge the first requester's override governs the
		// line's fill time; later merged loads simply ride its response.
		req.MissLatency = u.Inst.MissLatency
		req.IssuedAt = now
		c.submitDelayed(req, now)
	} else {
		c.stats.Bump(cMSHRMerges, 1)
	}

	if !u.WrongPath {
		li := c.allocLoadInfo()
		li.Tid = u.Tid
		li.Seq = u.Seq
		li.IssuedAt = now
		li.Bank = c.l2.BankOf(u.Inst.Addr)
		li.TLBMiss = u.TLBMissed
		u.Load = li
		c.slotLoads[slot] = append(c.slotLoads[slot], li)
		c.pol.OnL1Miss(li, now)
	}
}

// ---- rename ----

// renameStage reports whether it renamed any uop.
func (c *Core) renameStage(now uint64) bool {
	width := c.cfg.Core.RenameWidth
	budget := width
	n := len(c.threads)
	start := int(now) % n
	blocked := c.renameBlock
	for i := range blocked {
		blocked[i] = false
	}
	for budget > 0 {
		progressed := false
		next := start
		for i := 0; i < n && budget > 0; i++ {
			idx := next
			if next++; next == n {
				next = 0
			}
			if blocked[idx] {
				continue
			}
			t := c.threads[idx]
			u := t.frontQ.front()
			if u == nil || c.renameReadyAt(u) > now {
				blocked[idx] = true
				continue
			}
			if !c.tryRename(t, u) {
				blocked[idx] = true
				continue
			}
			t.frontQ.popFront()
			budget--
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return budget < width
}

func (c *Core) queueFor(class isa.Class) *queue {
	switch {
	case class.UsesFP():
		return c.fpQ
	case class.IsMem():
		return c.lsQ
	default:
		return c.intQ
	}
}

func (c *Core) tryRename(t *thread, u *UOp) bool {
	q := c.queueFor(u.Inst.Class)
	if !q.hasSpace() {
		c.stats.Bump(cRenameBlockedQueue, 1)
		return false
	}
	if t.rob.full() {
		c.stats.Bump(cRenameBlockedROB, 1)
		return false
	}
	needsReg := u.Inst.HasDest()
	if needsReg && (c.freePRegs == 0 || c.heldPRegs[t.id] >= c.pregCap) {
		c.stats.Bump(cRenameBlockedRegs, 1)
		return false
	}
	// Sources are looked up before the destination is renamed, so an
	// instruction reading its own destination waits on the previous
	// producer.
	if s := u.Inst.Src1; s != isa.InvalidReg {
		waitOn(t.regProd[s], u)
	}
	if s := u.Inst.Src2; s != isa.InvalidReg {
		waitOn(t.regProd[s], u)
	}
	if needsReg {
		c.freePRegs--
		c.heldPRegs[t.id]++
		u.HasPReg = true
		u.PrevProd = t.regProd[u.Inst.Dest]
		t.regProd[u.Inst.Dest] = mkRef(u)
	}
	q.insert(u)
	t.rob.push(u)
	return true
}

// waitOn registers u with the source producer prod if prod is live and
// has not executed; a dead reference names an architectural value. The
// registration needs no undo on squash: a consumer is always younger
// than its producer in the same thread, so any squash that drops an
// unexecuted producer drops its consumers too, and markExecuted skips
// the stale entries.
func waitOn(prod uopRef, u *UOp) {
	if p := prod.live(); p != nil && !p.Executed {
		u.waitSrc++
		p.deps = append(p.deps, mkRef(u))
	}
}

// ---- policy ----

// policyStage applies the policy's directives and reports whether any
// changed a thread's state.
func (c *Core) policyStage(now uint64) bool {
	acted := false
	for _, d := range c.pol.Tick(now) {
		t := c.threads[d.Tid]
		switch d.Action {
		case policy.ActNone:
			acted = acted || t.policyStalled
			t.policyStalled = false
		case policy.ActStall:
			if !t.flushStalled {
				acted = acted || !t.policyStalled
				t.policyStalled = true
				c.stats.Bump(cPolicyStallCycles, 1)
			}
		case policy.ActFlush:
			if t.flushStalled || d.Load == nil || d.Load.Resolved {
				break
			}
			c.doFlush(t, d.Load, now)
			acted = true
		}
	}
	return acted
}

// doFlush applies the FLUSH response action: squash everything younger
// than the offending load and fetch-stall the thread until it resolves.
func (c *Core) doFlush(t *thread, li *policy.LoadInfo, now uint64) {
	c.stats.Bump(cPolicyFlushes, 1)
	c.squashYounger(t, li.Seq, true, now)
	t.flushStalled = true
	t.flushLoad = li
	t.policyStalled = false
	t.icacheWait = nil // the flush abandons any in-flight fetch fill
	t.lastFetchLine = 0
}

// ---- squash ----

// squashYounger removes every uop of t younger than afterSeq, youngest
// first. forFlush selects the energy attribution (FLUSH waste vs
// wrong-path). The correct-path instructions a flush removes are fetched
// again: the window's cursor moves back over them. A mispredict squash
// removes only the wrong-path uops fetched past its branch.
func (c *Core) squashYounger(t *thread, afterSeq uint64, forFlush bool, now uint64) {
	undone := 0
	// The front-end queue holds the youngest uops, then the ROB.
	for _, r := range [...]*ring{t.frontQ, t.rob} {
		for r.len() > 0 && r.back().Seq > afterSeq {
			u := r.popBack()
			if !u.WrongPath {
				undone++
			}
			c.undoUop(t, u, forFlush, now)
		}
	}
	if undone > 0 && !forFlush {
		panic("pipeline: a mispredict squash removed correct-path uops")
	}
	t.win.cursor -= undone
}

func (c *Core) undoUop(t *thread, u *UOp, forFlush bool, now uint64) {
	u.Squashed = true

	// Energy attribution happens before state is torn down so the stage
	// classification sees the uop as it was.
	if forFlush && !u.WrongPath {
		c.energy.OnFlushed(u.StageAt(now, c.cfg.Core.FrontEndStages))
	} else {
		c.energy.OnWrongPath(u.StageAt(now, c.cfg.Core.FrontEndStages))
	}

	if u.InQueue {
		c.queueFor(u.Inst.Class).remove(u)
		t.icount--
	} else if !u.Issued {
		// Still in the front-end.
		t.icount--
	}
	if u.HasPReg {
		c.freePRegs++
		c.heldPRegs[u.Tid]--
		u.HasPReg = false
	}
	if u.Inst.HasDest() && t.regProd[u.Inst.Dest].refersTo(u) {
		t.regProd[u.Inst.Dest] = u.PrevProd
	}
	if li := u.Load; li != nil && !li.Resolved {
		c.pol.OnSquash(li)
		li.Resolved = true // stop any further policy notifications
	}
	if u == t.pendingMispredict {
		t.pendingMispredict = nil
		t.wrongPath = false
	}
	if u.Inst.Class.IsControl() && !u.WrongPath {
		c.pred.RAS[t.id].Restore(u.RASTop, u.RASDepth)
	}
	// Recycle now unless the uop is still resident in the wheel or an
	// MSHR waiter list; those sites recycle it when they drop it.
	if !u.InWheel && !u.WaitingMem {
		c.freeUOp(u)
	}
}

// ---- fetch ----

// fetchStage reports whether any thread got past canFetch: fetching then
// always changes state (a fetched uop, an icache miss or an ITLB stall).
func (c *Core) fetchStage(now uint64) bool {
	// ICOUNT ordering: fetchable threads by ascending in-flight count.
	order := c.fetchOrder[:0]
	for i := range c.threads {
		order = append(order, i)
	}
	c.fetchOrder = order
	for i := 1; i < len(order); i++ { // insertion sort: tiny n, stable
		for j := i; j > 0; j-- {
			a, b := c.threads[order[j-1]], c.threads[order[j]]
			if a.icount > b.icount || (a.icount == b.icount && (now+uint64(order[j-1]))%2 == 1) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}

	width := c.cfg.Core.FetchWidth
	threadsUsed := 0
	acted := false
	for _, idx := range order {
		if width == 0 || threadsUsed == c.cfg.Core.FetchThreads {
			break
		}
		t := c.threads[idx]
		if !c.canFetch(t, now) {
			continue
		}
		acted = true
		n := c.fetchThread(t, now, width)
		if n > 0 {
			width -= n
			threadsUsed++
		}
	}
	return acted
}

func (c *Core) canFetch(t *thread, now uint64) bool {
	switch {
	case t.icacheWait != nil:
		c.stats.Bump(cFetchBlockedICache, 1)
		return false
	case t.fetchStallUntil > now:
		c.stats.Bump(cFetchBlockedStall, 1)
		return false
	case t.policyStalled:
		c.stats.Bump(cFetchBlockedPolicy, 1)
		return false
	case t.flushStalled:
		c.stats.Bump(cFetchBlockedFlush, 1)
		return false
	case t.frontQ.full():
		c.stats.Bump(cFetchBlockedFrontQ, 1)
		return false
	}
	return true
}

// peekInst returns the next instruction to fetch without consuming it.
func (t *thread) peekInst() *isa.Inst {
	w := &t.win
	if t.wrongPath {
		t.bb.InstAt(t.wpPC, &w.wp)
		if w.fresh {
			// Known bug (ROADMAP item 2): the wrong path overwrites the
			// drawn correct-path instruction that fetch has not reached.
			*w.at(w.tail - 1) = w.wp
		}
		return &w.wp
	}
	if w.cursor == w.tail {
		t.src.Next(w.draw())
	}
	return w.at(w.cursor)
}

// consumeInst commits the peeked instruction.
func (t *thread) consumeInst() {
	w := &t.win
	if t.wrongPath {
		t.wpPC += 4
	} else if w.cursor++; w.cursor == w.tail {
		w.fresh = false
	}
}

func (c *Core) fetchThread(t *thread, now uint64, max int) int {
	fetched := 0
	for fetched < max && !t.frontQ.full() {
		in := t.peekInst()

		// Instruction cache: one access per new line.
		line := in.PC >> 6
		if line != t.lastFetchLine {
			if !c.itlb.Access(in.PC >> c.pageBits) {
				c.stats.Bump(cITLBMisses, 1)
				t.fetchStallUntil = now + uint64(c.cfg.Mem.TLBMissLatency)
				return fetched
			}
			if !c.l1i.Access(in.PC) {
				c.stats.Bump(cL1IMisses, 1)
				req := c.reqPool.Get()
				req.CoreID = c.ID
				req.ThreadID = t.id
				req.Addr = in.PC
				req.IsInstr = true
				req.IssuedAt = now
				t.icacheWait = req
				c.submitDelayed(req, now)
				return fetched
			}
			c.stats.Bump(cL1IHits, 1)
			t.lastFetchLine = line
		}

		u := c.allocUOp()
		u.Inst = *in
		u.Tid = t.id
		u.WrongPath = t.wrongPath
		u.FetchedAt = now
		t.consumeInst()
		t.seq++
		u.Seq = t.seq
		t.frontQ.push(u)
		t.icount++
		t.fetched++
		fetched++

		if !u.Inst.Class.IsControl() {
			continue
		}
		if u.WrongPath {
			// Wrong-path control: synthesised as fall-through; keep
			// fetching inline.
			continue
		}
		stop := c.predictControl(t, u, now)
		if stop {
			return fetched
		}
	}
	return fetched
}

// predictControl runs the front-end predictor for a fetched control
// instruction, arranging wrong-path fetch as needed. It reports whether
// the fetch group must end.
func (c *Core) predictControl(t *thread, u *UOp, now uint64) bool {
	u.RASTop, u.RASDepth = c.pred.RAS[t.id].Snapshot()
	pr := c.pred.Predict(t.id, &u.Inst)
	// A taken prediction without a target cannot redirect the front
	// end: the effective prediction is fall-through (real front ends
	// behave this way on BTB misses).
	if pr.Taken && pr.Target == 0 {
		pr.Taken = false
	}
	actual := &u.Inst

	if pr.Taken == actual.Taken && (!actual.Taken || pr.Target == actual.Target) {
		// Correct prediction. A taken branch ends the fetch group.
		if actual.Taken {
			t.lastFetchLine = 0 // next fetch starts at the target line
			return true
		}
		return false
	}
	// Mispredicted: fetch proceeds down the wrong path until the branch
	// resolves.
	u.MispredictedBranch = true
	t.pendingMispredict = u
	t.wrongPath = true
	if pr.Taken {
		t.wpPC = pr.Target
	} else {
		t.wpPC = actual.PC + 4
	}
	t.lastFetchLine = 0
	return true
}

// ---- invariant checks (used by tests) ----

// CheckInvariants validates resource conservation, the instruction
// windows' bookkeeping and the wakeup state (ready bits against producer
// counts, producer counts against wakeup lists); it returns an error
// describing the first violation.
func (c *Core) CheckInvariants() error {
	pool := c.cfg.Core.PhysRegs - c.cfg.Core.ThreadsPerCore*isa.NumArchRegs
	totalHeld := 0
	for tid, t := range c.threads {
		held, correct := 0, 0
		for i := 0; i < t.rob.len(); i++ {
			u := t.rob.at(i)
			if u.HasPReg {
				held++
			}
			if !u.WrongPath {
				correct++
			}
		}
		for i := 0; i < t.frontQ.len(); i++ {
			u := t.frontQ.at(i)
			if u.HasPReg {
				return fmt.Errorf("pipeline: front-end uop holds a register")
			}
			if !u.WrongPath {
				correct++
			}
		}
		if w := &t.win; correct != w.cursor || w.cursor > w.tail || w.tail > len(w.buf) {
			return fmt.Errorf("pipeline: thread %d instruction window drifted: %d correct-path uops in flight, cursor %d, tail %d, capacity %d",
				tid, correct, w.cursor, w.tail, len(w.buf))
		}
		if held != c.heldPRegs[tid] {
			return fmt.Errorf("pipeline: thread %d held-register count drifted: counted=%d tracked=%d",
				tid, held, c.heldPRegs[tid])
		}
		if held > c.pregCap {
			return fmt.Errorf("pipeline: thread %d exceeds register cap: %d > %d", tid, held, c.pregCap)
		}
		totalHeld += held
	}
	if c.freePRegs+totalHeld != pool {
		return fmt.Errorf("pipeline: register leak: free=%d held=%d pool=%d",
			c.freePRegs, totalHeld, pool)
	}
	for _, q := range []*queue{c.intQ, c.fpQ, c.lsQ} {
		var err error
		q.scan(func(u *UOp) bool {
			if u.Squashed {
				err = fmt.Errorf("pipeline: squashed thread %d uop %d resident in an issue queue", u.Tid, u.Seq)
			} else if want := c.pendingProducers(u); int(u.waitSrc) != want {
				err = fmt.Errorf("pipeline: thread %d uop %d waits on %d producers, %d unexecuted ones list it",
					u.Tid, u.Seq, u.waitSrc, want)
			}
			return err == nil
		})
		if err == nil {
			err = q.checkReady()
		}
		if err != nil {
			return err
		}
	}
	waiterLines := 0
	for _, ws := range c.slotWaiters {
		if len(ws) > 0 {
			waiterLines++
		}
	}
	if c.mshr.InUse() != waiterLines {
		return fmt.Errorf("pipeline: MSHR in use %d != waiter lines %d",
			c.mshr.InUse(), waiterLines)
	}
	return nil
}

// pendingProducers counts the wakeup-list entries naming u across its
// thread's live, unexecuted ROB uops: the wakeups u still expects.
func (c *Core) pendingProducers(u *UOp) int {
	rob := c.threads[u.Tid].rob
	n := 0
	for i := 0; i < rob.len(); i++ {
		p := rob.at(i)
		if p.Executed {
			continue
		}
		for _, r := range p.deps {
			if r.refersTo(u) {
				n++
			}
		}
	}
	return n
}

// ResetMeasurement zeroes the core's accumulated statistics (energy,
// counters, per-thread commit/fetch counts) without touching
// microarchitectural state. Used to exclude warm-up cycles.
func (c *Core) ResetMeasurement() {
	c.probing = false // its counter reading is gone
	c.energy = energy.Account{}
	c.stats = stats.Set{}
	for _, t := range c.threads {
		t.committed = 0
		t.fetched = 0
	}
}

// ThreadInfo is a per-thread progress snapshot for reports and tests.
type ThreadInfo struct {
	Committed uint64
	Fetched   uint64
	ICount    int
	Flushed   bool
	Stalled   bool
}

// Threads returns per-thread snapshots.
func (c *Core) Threads() []ThreadInfo {
	out := make([]ThreadInfo, len(c.threads))
	for i, t := range c.threads {
		out[i] = ThreadInfo{
			Committed: t.committed,
			Fetched:   t.fetched,
			ICount:    t.icount,
			Flushed:   t.flushStalled,
			Stalled:   t.policyStalled,
		}
	}
	return out
}
