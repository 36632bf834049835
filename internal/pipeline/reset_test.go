package pipeline

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/resettest"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestResetMatchesNew: a core stopped mid-flight equals a new core field
// for field once Reset for its next simulation, and then runs it exactly
// as the new core does. It stops once awake with uops in the completion
// wheel and requests waiting out the L1 tag check, and once asleep with
// misses outstanding and a thread flush-stalled. Only the free lists (and
// the recycling generations of the uops on them) carry over, so a field
// added to Core or thread without a reset line fails here.
func TestResetMatchesNew(t *testing.T) {
	stops := []struct {
		name string
		at   func(c *Core) bool
	}{
		{"awake", func(c *Core) bool {
			return c.wheelBusyCount() > 0 && len(c.pendingSubmits) > 0 && c.mshr.InUse() > 0 && c.threads[1].rob.len() > 0
		}},
		{"asleep", func(c *Core) bool {
			return c.wakeAt > 0 && len(c.idleDelta) > 0 && c.mshr.InUse() > 0 && c.threads[0].flushStalled
		}},
	}
	for _, stop := range stops {
		cfg := config.Default(1)
		cfg.Core.MSHREntries = 4
		l2 := mem.NewL2System(cfg)
		bases := []uint64{1 << 34, 2 << 34}
		srcs := func(seed uint64) []trace.Source {
			return []trace.Source{newRandomSource(seed, bases[0]), newRandomSource(seed+1, bases[1])}
		}
		dataBases := []uint64{synth.DataBase(bases[0]), synth.DataBase(bases[1])}
		c := New(0, &cfg, policy.NewFlushS(2, 5), l2, srcs(1), dataBases)
		// Step under event-horizon sleep, as a chip does.
		now := uint64(0)
		for ; now < 50000 && (now < 500 || !stop.at(c)); now++ {
			for _, r := range l2.Tick(now) {
				c.HandleResponse(r, now)
			}
			for _, r := range l2.DrainMissDetected() {
				c.HandleL2MissDetected(r, now)
			}
			c.Advance(now)
		}
		if now == 50000 {
			t.Fatalf("%s: the core never stopped in the wanted state", stop.name)
		}
		l2.Reset(cfg)
		c.Reset(policy.NewFlushNS(2), srcs(7), dataBases)
		l2b := mem.NewL2System(cfg)
		fresh := New(0, &cfg, policy.NewFlushNS(2), l2b, srcs(7), dataBases)
		if d := resettest.Diff(fresh, c, "uopFree", "loadFree", "reqPool"); d != "" {
			t.Fatalf("%s: reset core differs from a new one at %s", stop.name, d)
		}
		h, other := &harness{core: c, l2: l2}, &harness{core: fresh, l2: l2b}
		for range 20 {
			h.run(t, 100)
			other.run(t, 100)
			if a, b := c.stats.String(), fresh.stats.String(); a != b {
				t.Fatalf("%s: cycle %d: reset core counters %s, new core %s", stop.name, h.now, a, b)
			}
		}
	}
}

// wheelBusyCount counts the occupied completion-wheel slots.
func (c *Core) wheelBusyCount() int {
	n := 0
	for _, s := range c.wheel {
		if len(s) > 0 {
			n++
		}
	}
	return n
}
