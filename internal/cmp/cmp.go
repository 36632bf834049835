// Package cmp assembles the chip multiprocessor: N SMT cores (from
// internal/pipeline) sharing one banked L2 system (internal/mem) over the
// shared bus.
//
// The chip is stepped to an event horizon rather than in lock-step: a
// core whose tick changed nothing sleeps until its next event
// (pipeline.Core.Advance), the L2 ticks only when one of its events is
// due (mem.L2System.Due), and when every core sleeps and the L2 has
// nothing due the clock jumps to the earliest wake-up. Every skipped
// tick would have changed nothing but per-cycle counters, which the
// cores charge in bulk, so the simulation is bit-identical to ticking
// every component on every cycle.
package cmp

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Chip is one CMP+SMT processor.
type Chip struct {
	cfg   config.Config
	l2    *mem.L2System
	cores []*pipeline.Core
	now   uint64
	// lockstep ticks the L2 and every core on every cycle: the reference
	// the event-horizon stepping is tested against (tests only).
	lockstep bool
}

// New builds a chip. policies supplies one IFetch policy per core (cores
// do not share policy state, matching per-core hardware); sources and
// dataBases, each context's data-area base (synth.DataBase), are indexed
// [core][context].
func New(cfg config.Config, policies []*policy.Policy,
	sources [][]trace.Source, dataBases [][]uint64) (*Chip, error) {
	if err := checkInputs(cfg, policies, sources, dataBases); err != nil {
		return nil, err
	}
	ch := &Chip{cfg: cfg, l2: mem.NewL2System(cfg)}
	for i := 0; i < cfg.Cores; i++ {
		ch.cores = append(ch.cores,
			pipeline.New(i, &ch.cfg, policies[i], ch.l2, sources[i], dataBases[i]))
	}
	return ch, nil
}

// Reset readies a chip for a new simulation, leaving it exactly as New
// builds it from the same arguments (test-enforced) while keeping the
// storage of every component: the L2 system (mem.L2System.Reset) and each
// core (pipeline.Core.Reset). cfg must describe the machine the chip was
// built for, up to the seed; mem.L2System.Reset panics on any other.
func (ch *Chip) Reset(cfg config.Config, policies []*policy.Policy,
	sources [][]trace.Source, dataBases [][]uint64) error {
	if err := checkInputs(cfg, policies, sources, dataBases); err != nil {
		return err
	}
	ch.l2.Reset(cfg)
	ch.cfg = cfg
	ch.now = 0
	ch.lockstep = false
	for i, c := range ch.cores {
		c.Reset(policies[i], sources[i], dataBases[i])
	}
	return nil
}

// checkInputs validates cfg and that there is one policy, source list and
// base list per core.
func checkInputs(cfg config.Config, policies []*policy.Policy,
	sources [][]trace.Source, dataBases [][]uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(policies) != cfg.Cores || len(sources) != cfg.Cores || len(dataBases) != cfg.Cores {
		return fmt.Errorf("cmp: need %d cores of policies/sources/bases, got %d/%d/%d",
			cfg.Cores, len(policies), len(sources), len(dataBases))
	}
	return nil
}

// Run advances the chip by the given number of cycles. Whenever no
// component can act before some later cycle, the clock jumps there, but
// never past the end of the run; the sleeping cores are settled before
// Run returns.
//
//mflush:hotpath-ok
func (ch *Chip) Run(cycles uint64) {
	end := ch.now + cycles
	for ch.now < end {
		if next := ch.step(); next > ch.now {
			ch.now = min(next, end)
		}
	}
	ch.settle()
}

// step advances the chip one cycle: the shared system first (its
// responses reach the cores this cycle), then every core. It returns the
// earliest cycle at which any of them can act next, which is at most the
// new current cycle unless every core sleeps and the L2 has nothing due.
func (ch *Chip) step() uint64 {
	now := ch.now
	if ch.lockstep || now >= ch.l2.Due() {
		for _, r := range ch.l2.Tick(now) {
			ch.cores[r.CoreID].HandleResponse(r, now)
		}
		for _, r := range ch.l2.DrainMissDetected() {
			ch.cores[r.CoreID].HandleL2MissDetected(r, now)
		}
	}
	ch.now++
	if ch.lockstep {
		for _, c := range ch.cores {
			c.Tick(now)
		}
		return ch.now
	}
	next := uint64(math.MaxUint64)
	for _, c := range ch.cores {
		c.Advance(now)
		next = min(next, c.WakeAt())
	}
	// Read after the cores: their submissions make the L2 due.
	return min(next, ch.l2.Due())
}

// settle charges every sleeping core for the cycles it has slept through.
func (ch *Chip) settle() {
	for _, c := range ch.cores {
		c.Settle(ch.now)
	}
}

// Now returns the current cycle.
//
//mflush:hotpath-ok
func (ch *Chip) Now() uint64 { return ch.now }

// Cores returns the core models.
func (ch *Chip) Cores() []*pipeline.Core { return ch.cores }

// L2 returns the shared system.
func (ch *Chip) L2() *mem.L2System { return ch.l2 }

// Config returns the machine configuration.
func (ch *Chip) Config() config.Config { return ch.cfg }

// CheckInvariants validates every core's resource conservation.
func (ch *Chip) CheckInvariants() error {
	for i, c := range ch.cores {
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}
