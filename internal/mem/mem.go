// Package mem assembles the shared part of the memory hierarchy: the
// multi-banked second-level cache reached over the shared bus, backed by
// main memory.
//
// Timing model (all latencies from config):
//
//	core L1 miss --request bus--> L2 bank queue --[bank busy Latency]-->
//	    hit:  --response bus--> core
//	    miss: --memory pipe (MainMemoryLatency)--> L2 bank fill
//	          --[bank busy Latency]--> --response bus--> core
//
// Each L2 bank is single-ported: it serves one operation (tag check or
// fill) at a time, each occupying the bank for the full access latency.
// Queueing at the banks and at the bus arbiter is what makes the L2 *hit*
// time variable when several SMT cores share the cache — the effect the
// paper's Figure 4 quantifies and MFLUSH adapts to.
package mem

import (
	"math"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/stats"
)

// Request is one core-to-L2 transaction. The pipeline allocates it on an
// L1 miss and reads the result fields when it returns.
type Request struct {
	// CoreID routes the response back to the issuing core.
	CoreID int
	// ThreadID identifies the hardware context within the core.
	ThreadID int
	// Addr is the byte address of the access.
	Addr uint64
	// IsInstr marks icache fills (vs dcache fills).
	IsInstr bool
	// MissLatency, when non-zero, overrides the configured main-memory
	// latency for this request should it miss in L2 (per-instruction
	// far-memory override carried in from the trace).
	MissLatency uint32
	// NoWake marks fire-and-forget requests (store-miss fills): the
	// response fills the cache but wakes no instruction.
	NoWake bool
	// IssuedAt is the cycle the originating load issued (or the fetch
	// stalled); latency measurements are taken from here.
	IssuedAt uint64
	// EnteredL2At is the cycle the request was submitted to the shared
	// system (L1 miss detection time).
	EnteredL2At uint64
	// Bank is the L2 bank serving the request, fixed by the address.
	Bank int
	// L2Hit reports whether the tag check hit; valid once completed.
	L2Hit bool
	// CompletedAt is the cycle the response reached the core.
	CompletedAt uint64

	// pooled marks free-list membership (double-put guard).
	pooled bool
}

// RequestPool recycles Requests. The pipeline allocates one per L1 miss
// and the response is its last use, so each core keeps a pool and puts
// requests back as it consumes responses. Not safe for concurrent use;
// intended per-core.
type RequestPool struct {
	free []*Request
}

// Get returns a zeroed Request.
func (p *RequestPool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		r.pooled = false
		return r
	}
	return &Request{}
}

// Put recycles a request whose response has been fully consumed.
func (p *RequestPool) Put(r *Request) {
	if r.pooled {
		panic("mem: double put of request")
	}
	*r = Request{pooled: true}
	p.free = append(p.free, r)
}

// L2System is the shared L2 cache plus its interconnect and memory
// backend. It is driven by one Tick per cycle.
type L2System struct {
	cfg  config.Config
	l2   *cache.Cache
	req  *bus.Bus[*Request]
	resp *bus.Bus[*Request]

	banks []bankState

	// Main memory: bounded issue bandwidth, fixed service latency.
	memPending  bus.FIFO[*Request]
	memInFlight bus.FIFO[timedReq]
	memStarts   int
	// memFar holds in-flight misses with a per-request MissLatency
	// override. They cannot share memInFlight: that FIFO's drain peeks
	// only the head, which is correct solely because fixed-latency
	// completions are monotonic in start order. Overridden requests are
	// scanned in insertion order instead, so completion handling stays
	// deterministic.
	memFar []timedReq

	// missDetected accumulates requests whose L2 tag check missed this
	// cycle — the non-speculative FLUSH Detection Moment signal.
	// missSpare is the drained buffer from the previous cycle, swapped
	// back in so the per-cycle path reuses the two backing arrays.
	missDetected []*Request
	missSpare    []*Request

	// due is the earliest cycle at which Tick can act: NextEvent as of
	// the end of the last Tick, lowered by Submit. Callers skip the
	// Ticks before it (see Due).
	due uint64

	// Measurements.
	hitLatency  *stats.Histogram // load-issue to response, L2 hits only
	missLatency *stats.Histogram
	counters    stats.Set
}

// Typed counter IDs for the shared-system events (see stats.CounterID).
var (
	cL2Requests = stats.MustRegister("l2.requests")
	cL2Fills    = stats.MustRegister("l2.fills")
	cL2Hits     = stats.MustRegister("l2.hits")
	cL2Misses   = stats.MustRegister("l2.misses")
	cL2BankOps  = stats.MustRegister("l2.bank_ops")
	cMemReads   = stats.MustRegister("mem.reads")
)

type bankOp struct {
	req  *Request
	fill bool
}

type bankState struct {
	queue   bus.FIFO[bankOp]
	current bankOp
	busy    bool
	doneAt  uint64
}

// memStartsPerCycle bounds how many L2 misses main memory can begin
// servicing each cycle (DRAM channel bandwidth).
const memStartsPerCycle = 4

// latencyHistBound caps the exact-count range of the latency histograms.
const latencyHistBound = 1024

// NewL2System builds the shared system from the machine configuration.
func NewL2System(cfg config.Config) *L2System {
	return &L2System{
		cfg:         cfg,
		l2:          cache.New(cfg.Mem.L2),
		req:         bus.New[*Request](cfg.Mem.BusDelay, 1),
		resp:        bus.New[*Request](cfg.Mem.BusDelay, 1),
		banks:       make([]bankState, cfg.Mem.L2.Banks),
		memStarts:   memStartsPerCycle,
		hitLatency:  stats.NewHistogram(latencyHistBound),
		missLatency: stats.NewHistogram(latencyHistBound),
	}
}

// BankOf returns the L2 bank that will serve the given address. The
// MFLUSH policy uses this to select the MCReg before the access completes.
func (s *L2System) BankOf(addr uint64) int { return s.l2.BankOf(addr) }

// Submit enters a request into the shared system at cycle now.
func (s *L2System) Submit(r *Request, now uint64) {
	r.EnteredL2At = now
	r.Bank = s.BankOf(r.Addr)
	s.counters.Bump(cL2Requests, 1)
	s.req.Push(now, r)
	s.due = min(s.due, now)
}

// Due returns the earliest cycle at which Tick can act. Every Tick before
// it returns no responses, reports no misses and changes no state, so a
// caller may skip those Ticks; Submit makes the system due at once.
func (s *L2System) Due() uint64 { return s.due }

// NextEvent returns the earliest cycle at or after now at which Tick would
// act, given that every earlier cycle has been ticked: a queued bus
// transfer, a waiting bank operation or a pending memory read act at now;
// bus deliveries, memory completions and bank operations at their due
// cycles. It returns math.MaxUint64 when nothing is in flight.
func (s *L2System) NextEvent(now uint64) uint64 {
	if s.memPending.Len() > 0 {
		return now
	}
	next := min(s.req.NextEvent(now), s.resp.NextEvent(now))
	if s.memInFlight.Len() > 0 {
		next = min(next, s.memInFlight.Peek().doneAt)
	}
	for _, t := range s.memFar {
		next = min(next, t.doneAt)
	}
	for b := range s.banks {
		bank := &s.banks[b]
		switch {
		case bank.busy:
			next = min(next, bank.doneAt)
		case bank.queue.Len() > 0:
			return now
		}
	}
	return max(next, now)
}

// Tick advances the shared system one cycle and returns the requests whose
// responses reach their cores at cycle now.
func (s *L2System) Tick(now uint64) []*Request {
	// 1. Requests arriving over the bus enter their bank queue.
	for _, r := range s.req.Tick(now) {
		s.banks[r.Bank].queue.Push(bankOp{req: r})
	}

	// 2. Memory completions re-enter their bank for the line fill.
	for s.memInFlight.Len() > 0 && s.memInFlight.Peek().doneAt <= now {
		r := s.memInFlight.Pop().req
		s.banks[r.Bank].queue.Push(bankOp{req: r, fill: true})
	}
	if len(s.memFar) > 0 {
		kept := s.memFar[:0]
		for _, t := range s.memFar {
			if t.doneAt <= now {
				s.banks[t.req.Bank].queue.Push(bankOp{req: t.req, fill: true})
			} else {
				kept = append(kept, t)
			}
		}
		for i := len(kept); i < len(s.memFar); i++ {
			s.memFar[i] = timedReq{}
		}
		s.memFar = kept
	}

	// 3. Banks: finish the in-service operation, then start the next.
	for b := range s.banks {
		bank := &s.banks[b]
		if bank.busy && bank.doneAt <= now {
			bank.busy = false
			op := bank.current
			switch {
			case op.fill:
				s.l2.Fill(op.req.Addr)
				s.counters.Bump(cL2Fills, 1)
				s.resp.Push(now, op.req)
			default:
				if s.l2.Access(op.req.Addr) {
					op.req.L2Hit = true
					s.counters.Bump(cL2Hits, 1)
					s.resp.Push(now, op.req)
				} else {
					s.counters.Bump(cL2Misses, 1)
					s.missDetected = append(s.missDetected, op.req)
					s.memPending.Push(op.req)
				}
			}
		}
		if !bank.busy && bank.queue.Len() > 0 {
			bank.current = bank.queue.Pop()
			bank.busy = true
			occ := s.cfg.Mem.L2.Latency
			if bank.current.fill && s.cfg.Mem.L2FillOccupancy > 0 {
				occ = s.cfg.Mem.L2FillOccupancy
			}
			bank.doneAt = now + uint64(occ)
			s.counters.Bump(cL2BankOps, 1)
		}
	}

	// 4. Main memory begins a bounded number of new services.
	for i := 0; i < s.memStarts && s.memPending.Len() > 0; i++ {
		r := s.memPending.Pop()
		if r.MissLatency > 0 {
			s.memFar = append(s.memFar, timedReq{req: r, doneAt: now + uint64(r.MissLatency)})
		} else {
			s.memInFlight.Push(timedReq{req: r, doneAt: now + uint64(s.cfg.Mem.MainMemoryLatency)})
		}
		s.counters.Bump(cMemReads, 1)
	}

	// 5. Responses arriving at the cores.
	done := s.resp.Tick(now)
	for _, r := range done {
		r.CompletedAt = now
		if r.IsInstr || r.NoWake {
			continue // Figure 4 measures demand loads only
		}
		lat := int(now - r.IssuedAt)
		if r.L2Hit {
			s.hitLatency.Add(lat)
		} else {
			s.missLatency.Add(lat)
		}
	}
	s.due = s.NextEvent(now + 1)
	return done
}

// DrainMissDetected returns and clears the requests whose L2 tag check
// reported a miss since the last call. Cores forward these to
// non-speculative flush policies.
func (s *L2System) DrainMissDetected() []*Request {
	out := s.missDetected
	s.missDetected = s.missSpare[:0]
	s.missSpare = out
	return out
}

// Drain reports whether any transaction is still in flight.
func (s *L2System) Drain() bool { return s.NextEvent(0) != math.MaxUint64 }

// ResetStats discards accumulated measurements (histograms and counters)
// while preserving cache and queue state — used to exclude warm-up from
// reported results.
func (s *L2System) ResetStats() {
	s.hitLatency = stats.NewHistogram(latencyHistBound)
	s.missLatency = stats.NewHistogram(latencyHistBound)
	s.counters = stats.Set{}
}

// HitLatency returns the histogram of load-issue-to-service latencies for
// accesses that hit in L2 (the paper's Figure 4 metric).
func (s *L2System) HitLatency() *stats.Histogram { return s.hitLatency }

// MissLatency returns the latency histogram for L2 misses.
func (s *L2System) MissLatency() *stats.Histogram { return s.missLatency }

// Counters exposes the event counters (l2.requests, l2.hits, ...).
func (s *L2System) Counters() *stats.Set { return &s.counters }

// Cache exposes the underlying tag store (used by tests and by warm-up
// helpers).
func (s *L2System) Cache() *cache.Cache { return s.l2 }

// Release recycles the L2 tag store's arrays (cache.Release) once the
// system will not be ticked again; counters and histograms stay readable.
func (s *L2System) Release() { s.l2.Release() }

type timedReq struct {
	req    *Request
	doneAt uint64
}
