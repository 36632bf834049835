// Package cmp assembles the chip multiprocessor: N SMT cores (from
// internal/pipeline) sharing one banked L2 system (internal/mem) over the
// shared bus, advanced in lock-step one cycle at a time.
package cmp

import (
	"fmt"

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
}

// New builds a chip. policies supplies one IFetch policy per core (cores
// do not share policy state, matching per-core hardware); sources and
// dataBases are indexed [core][context].
func New(cfg config.Config, policies []policy.Policy,
	sources [][]trace.Source, dataBases [][]uint64) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(policies) != cfg.Cores || len(sources) != cfg.Cores || len(dataBases) != cfg.Cores {
		return nil, fmt.Errorf("cmp: need %d cores of policies/sources/bases, got %d/%d/%d",
			cfg.Cores, len(policies), len(sources), len(dataBases))
	}
	ch := &Chip{cfg: cfg, l2: mem.NewL2System(cfg)}
	for i := 0; i < cfg.Cores; i++ {
		ch.cores = append(ch.cores,
			pipeline.New(i, &ch.cfg, policies[i], ch.l2, sources[i], dataBases[i]))
	}
	return ch, nil
}

// Tick advances the whole chip one cycle: the shared system first (its
// responses reach the cores this cycle), then every core.
//
//mflush:hotpath-ok
func (ch *Chip) Tick() {
	for _, r := range ch.l2.Tick(ch.now) {
		ch.cores[r.CoreID].HandleResponse(r, ch.now)
	}
	for _, r := range ch.l2.DrainMissDetected() {
		ch.cores[r.CoreID].HandleL2MissDetected(r, ch.now)
	}
	for _, c := range ch.cores {
		c.Tick(ch.now)
	}
	ch.now++
}

// Run advances the chip by the given number of cycles.
//
//mflush:hotpath-ok
func (ch *Chip) Run(cycles uint64) {
	for i := uint64(0); i < cycles; i++ {
		ch.Tick()
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

// Release recycles the chip's shared L2 arrays for the next chip built
// (mem.L2System.Release). The chip must not be ticked afterwards; its
// counters and totals stay readable.
func (ch *Chip) Release() { ch.l2.Release() }

// CheckInvariants validates every core's resource conservation.
func (ch *Chip) CheckInvariants() error {
	for i, c := range ch.cores {
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}
