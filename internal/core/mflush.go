// Package core implements the paper's contribution: the MFLUSH IFetch
// policy for CMPs built from SMT cores sharing a banked L2 cache.
//
// MFLUSH adapts the FLUSH/STALL philosophy to the CMP+SMT scenario, where
// the L2 *hit* latency is highly variable (bus and bank contention), so no
// static flush trigger works for every workload. For each memory access
// MFLUSH predicts the resolution time from an 8-bit register per
// (core, L2 bank) — the MCReg — that latches the latency of the last L2
// hit observed in that bank. From the prediction it derives a dynamic
// Barrier; accesses outstanding longer than a suspicious threshold put the
// thread into a Preventive State (fetch-stalled but still executing), and
// accesses outstanding past the Barrier trigger a flush.
//
// Operational environment (paper Figure 6):
//
//	MIN       = L1-miss latency (fastest possible L2 hit, from issue)
//	MAX       = L2-miss latency
//	MT        = (L1_L2_bus_delay + L2_bank_access_delay) * (numCores - 1)
//	suspicious  threshold = MIN + MT
//	BARRIER   = L2prediction + MIN/2 + MT
package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/policy"
)

// MCRegMax is the saturation bound of the 8-bit MCReg registers.
const MCRegMax = 255

// MCRegFile is the per-core MFLUSH hardware support: one small register
// per shared-L2 bank holding the latency of the last L2 hit served by that
// bank (paper Figure 7). An optional history deepens each register into a
// small queue whose maximum is used as the prediction — the "more complex
// configurations" the paper mentions; HistoryLen 1 is the paper's default.
type MCRegFile struct {
	histories  [][]uint8
	historyLen int
}

// NewMCRegFile returns a register file for the given bank count, with
// every entry initialised to init (clamped to 8 bits). historyLen selects
// the per-bank history depth; 1 reproduces the paper's single register.
func NewMCRegFile(banks, historyLen int, init int) *MCRegFile {
	if banks <= 0 {
		panic("core: MCRegFile needs at least one bank")
	}
	if historyLen <= 0 {
		panic("core: MCRegFile history must be positive")
	}
	f := &MCRegFile{histories: make([][]uint8, banks), historyLen: historyLen}
	v := clamp8(init)
	for b := range f.histories {
		h := make([]uint8, historyLen)
		for i := range h {
			h[i] = v
		}
		f.histories[b] = h
	}
	return f
}

// Predict returns the predicted L2 hit latency for the given bank: the
// newest entry with HistoryLen 1, otherwise the maximum over the history
// (a conservative reduction that avoids flushing on the fastest recent
// sample).
func (f *MCRegFile) Predict(bank int) int {
	h := f.histories[bank]
	max := h[0]
	for _, v := range h[1:] {
		if v > max {
			max = v
		}
	}
	return int(max)
}

// Update latches an observed L2 hit latency for the bank.
func (f *MCRegFile) Update(bank, latency int) {
	h := f.histories[bank]
	copy(h[1:], h[:len(h)-1])
	h[0] = clamp8(latency)
}

// Banks returns the number of banks tracked.
func (f *MCRegFile) Banks() int { return len(f.histories) }

// Snapshot returns the newest value per bank (for reports and tests).
func (f *MCRegFile) Snapshot() []uint8 {
	out := make([]uint8, len(f.histories))
	for b, h := range f.histories {
		out[b] = h[0]
	}
	return out
}

// AppendSnapshot appends the newest value per bank to dst and returns the
// extended slice. It is the allocation-free form of Snapshot for per-
// interval samplers: pass dst[:0] of a reused buffer to refresh it in
// place.
//
//mflush:hotpath-ok
func (f *MCRegFile) AppendSnapshot(dst []uint8) []uint8 {
	for _, h := range f.histories {
		dst = append(dst, h[0])
	}
	return dst
}

func clamp8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > MCRegMax {
		return MCRegMax
	}
	return uint8(v)
}

// OperationalEnvironment holds the derived MFLUSH thresholds for one
// machine configuration (paper Figure 6).
type OperationalEnvironment struct {
	// Min is the fastest possible L2 hit latency from load issue.
	Min int
	// Max is the L2 miss resolution latency.
	Max int
	// MT is the Multicore Traffic delay.
	MT int
}

// EnvironmentFor derives the operational environment from a machine
// configuration.
func EnvironmentFor(cfg *config.Config) OperationalEnvironment {
	return OperationalEnvironment{
		Min: cfg.MinL2Latency(),
		Max: cfg.MaxL2Latency(),
		MT:  cfg.MTDelay(),
	}
}

// Suspicious returns the Preventive State threshold MIN + MT.
func (e OperationalEnvironment) Suspicious() int { return e.Min + e.MT }

// Barrier returns the flush threshold for a given L2 latency prediction:
// prediction + MIN/2 + MT, clamped into [Suspicious+1, Max+MT] so a
// corrupt prediction can neither flush instantly nor never.
func (e OperationalEnvironment) Barrier(prediction int) int {
	b := prediction + e.Min/2 + e.MT
	if lo := e.Suspicious() + 1; b < lo {
		b = lo
	}
	if hi := e.Max + e.MT; b > hi {
		b = hi
	}
	return b
}

// String renders the environment compactly.
func (e OperationalEnvironment) String() string {
	return fmt.Sprintf("MIN=%d MAX=%d MT=%d suspicious=%d", e.Min, e.Max, e.MT, e.Suspicious())
}

// MFLUSH is the adaptive IFetch policy. It implements policy.Policy for
// one core.
type MFLUSH struct {
	env   OperationalEnvironment
	mcreg *MCRegFile
	// loads[tid] holds outstanding L1-missing loads in issue order,
	// each with its Barrier frozen at miss time.
	loads [][]trackedLoad
	out   []policy.Directive

	// Telemetry.
	predictions uint64
	updates     uint64
	flushes     uint64
	preventive  uint64
}

type trackedLoad struct {
	li      *policy.LoadInfo
	barrier uint64
}

// NewMFLUSH builds the policy for one core of the given machine. The MCReg
// registers start at MIN, the uncontended L2 hit latency.
func NewMFLUSH(cfg *config.Config) *MFLUSH {
	return NewMFLUSHHistory(cfg, 1)
}

// NewMFLUSHHistory builds MFLUSH with a deeper MCReg history (the paper's
// optional configuration; historyLen 1 is the published design).
func NewMFLUSHHistory(cfg *config.Config, historyLen int) *MFLUSH {
	env := EnvironmentFor(cfg)
	return &MFLUSH{
		env:   env,
		mcreg: NewMCRegFile(cfg.Mem.L2.Banks, historyLen, env.Min),
		loads: make([][]trackedLoad, cfg.Core.ThreadsPerCore),
	}
}

// Env returns the derived operational environment.
func (m *MFLUSH) Env() OperationalEnvironment { return m.env }

// MCReg exposes the register file (reports, tests).
//
//mflush:hotpath-ok
func (m *MFLUSH) MCReg() *MCRegFile { return m.mcreg }

// OnL1Miss implements policy.Policy: predict the access's resolution time
// from the bank's MCReg and freeze its Barrier.
func (m *MFLUSH) OnL1Miss(li *policy.LoadInfo, now uint64) {
	pred := m.mcreg.Predict(li.Bank)
	m.predictions++
	barrier := li.IssuedAt + uint64(m.env.Barrier(pred))
	m.loads[li.Tid] = append(m.loads[li.Tid], trackedLoad{li: li, barrier: barrier})
}

// OnL2MissDetected implements policy.Policy. The published MFLUSH is
// purely Barrier-driven: it does not use the non-speculative miss signal
// (reacting to it would turn MFLUSH into FLUSH-NS for true misses and
// forfeit the energy advantage of the later, smaller flushes). The signal
// is only recorded on the LoadInfo for reporting.
func (m *MFLUSH) OnL2MissDetected(li *policy.LoadInfo, now uint64) {
	li.L2MissDetected = true
}

// OnResolve implements policy.Policy: drop tracking and, for L2 hits whose
// latency was not distorted by a TLB walk, train the bank's MCReg with the
// observed latency.
func (m *MFLUSH) OnResolve(li *policy.LoadInfo, now uint64) {
	m.drop(li)
	if li.L2Hit && !li.TLBMiss {
		m.mcreg.Update(li.Bank, int(li.ResolvedAt-li.IssuedAt))
		m.updates++
	}
}

// OnSquash implements policy.Policy.
func (m *MFLUSH) OnSquash(li *policy.LoadInfo) { m.drop(li) }

func (m *MFLUSH) drop(li *policy.LoadInfo) {
	s := m.loads[li.Tid]
	for i := range s {
		if s[i].li == li {
			m.loads[li.Tid] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

// Tick implements policy.Policy: per thread, a load past its Barrier
// demands a flush; otherwise a load past the suspicious threshold demands
// the Preventive State (fetch stall); otherwise normal fetch.
func (m *MFLUSH) Tick(now uint64) []policy.Directive {
	m.out = m.out[:0]
	susp := uint64(m.env.Suspicious())
	for tid := range m.loads {
		act := policy.ActNone
		var offender *policy.LoadInfo
		for i := range m.loads[tid] {
			t := &m.loads[tid][i]
			if now > t.barrier {
				act = policy.ActFlush
				offender = t.li
				break
			}
			if t.li.Elapsed(now) > susp {
				act = policy.ActStall
			}
		}
		switch act {
		case policy.ActFlush:
			m.flushes++
			m.out = append(m.out, policy.Directive{Tid: tid, Action: policy.ActFlush, Load: offender})
		case policy.ActStall:
			m.preventive++
			m.out = append(m.out, policy.Directive{Tid: tid, Action: policy.ActStall})
		default:
			m.out = append(m.out, policy.Directive{Tid: tid, Action: policy.ActNone})
		}
	}
	return m.out
}

// Telemetry returns internal event counts: latency predictions made, MCReg
// updates, flush directives and preventive-state cycles.
func (m *MFLUSH) Telemetry() (predictions, updates, flushes, preventiveCycles uint64) {
	return m.predictions, m.updates, m.flushes, m.preventive
}

// Outstanding returns the number of tracked loads for tid.
func (m *MFLUSH) Outstanding(tid int) int { return len(m.loads[tid]) }

var _ policy.Policy = (*MFLUSH)(nil)
