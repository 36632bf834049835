package policy

import (
	"fmt"

	"repro/internal/config"
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
		panic("policy: MCRegFile needs at least one bank")
	}
	if historyLen <= 0 {
		panic("policy: MCRegFile history must be positive")
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
//
//mflush:hotpath
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
//
//mflush:hotpath
func (f *MCRegFile) Update(bank, latency int) {
	h := f.histories[bank]
	copy(h[1:], h[:len(h)-1])
	h[0] = clamp8(latency)
}

// Banks returns the number of banks tracked.
func (f *MCRegFile) Banks() int { return len(f.histories) }

// AppendSnapshot appends the newest value per bank to dst and returns the
// extended slice. Per-interval samplers pass dst[:0] of a reused buffer
// to refresh it in place without allocating.
//
//mflush:hotpath-ok
func (f *MCRegFile) AppendSnapshot(dst []uint8) []uint8 {
	for _, h := range f.histories {
		dst = append(dst, h[0])
	}
	return dst
}

//mflush:hotpath
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
// machine configuration. MFLUSH adapts FLUSH and STALL to CMPs of SMT
// cores sharing a banked L2, where bus and bank contention make the L2
// *hit* latency vary, so no fixed trigger suits every workload. It
// predicts each access's latency from its bank's MCReg and derives the
// access's Barrier from that prediction (paper Figure 6):
//
//	MIN       = L1-miss latency (fastest possible L2 hit, from issue)
//	MAX       = L2-miss latency
//	MT        = (L1_L2_bus_delay + L2_bank_access_delay) * (numCores - 1)
//	suspicious  threshold = MIN + MT
//	BARRIER   = L2prediction + MIN/2 + MT
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
//
//mflush:hotpath
func (e OperationalEnvironment) Suspicious() int { return e.Min + e.MT }

// Barrier returns the flush threshold for a given L2 latency prediction:
// prediction + MIN/2 + MT, clamped into [Suspicious+1, Max+MT] so a
// corrupt prediction can neither flush instantly nor never.
//
//mflush:hotpath
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
