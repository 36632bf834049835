package mem

import (
	"testing"

	"repro/internal/config"
	"repro/internal/resettest"
)

func TestMissDetectedSignal(t *testing.T) {
	cfg := config.Default(1)
	s := NewL2System(cfg)
	r := &Request{Addr: 0x4000, IssuedAt: 0}
	s.Submit(r, 0)
	var detected []*Request
	for now := uint64(0); now < 600; now++ {
		s.Tick(now)
		detected = append(detected, s.DrainMissDetected()...)
	}
	if len(detected) != 1 || detected[0] != r {
		t.Fatalf("miss-detected = %v", detected)
	}
	// A hit produces no signal.
	r2 := &Request{Addr: 0x4000, IssuedAt: 600}
	s.Submit(r2, 600)
	for now := uint64(600); now < 1200; now++ {
		s.Tick(now)
		if ds := s.DrainMissDetected(); len(ds) != 0 {
			t.Fatalf("hit raised a miss signal: %v", ds)
		}
	}
	if !r2.L2Hit {
		t.Fatal("second access should hit")
	}
}

func TestMissDetectionTiming(t *testing.T) {
	// The signal fires at tag-check completion, long before the data
	// returns — that is what makes FL-NS actionable.
	cfg := config.Default(1)
	s := NewL2System(cfg)
	r := &Request{Addr: 0x9000, IssuedAt: 0}
	s.Submit(r, 0)
	var detectAt, doneAt uint64
	for now := uint64(0); now < 600; now++ {
		done := s.Tick(now)
		if len(s.DrainMissDetected()) > 0 {
			detectAt = now
		}
		for _, d := range done {
			if d == r {
				doneAt = now
			}
		}
	}
	if detectAt == 0 || doneAt == 0 {
		t.Fatal("request did not complete")
	}
	if doneAt-detectAt < uint64(cfg.Mem.MainMemoryLatency) {
		t.Fatalf("detection at %d only %d cycles before completion %d",
			detectAt, doneAt-detectAt, doneAt)
	}
}

func TestResetStatsPreservesCacheState(t *testing.T) {
	cfg := config.Default(1)
	s := NewL2System(cfg)
	r := &Request{Addr: 0x40, IssuedAt: 0}
	s.Submit(r, 0)
	for now := uint64(0); now < 600; now++ {
		s.Tick(now)
	}
	s.ResetStats()
	if s.Counters().Get("l2.requests") != 0 || s.HitLatency().Count() != 0 {
		t.Fatal("stats not cleared")
	}
	// The line filled before the reset must still be resident: the next
	// access is a hit.
	r2 := &Request{Addr: 0x40, IssuedAt: 1000}
	s.Submit(r2, 1000)
	for now := uint64(1000); now < 1600; now++ {
		s.Tick(now)
	}
	if !r2.L2Hit {
		t.Fatal("cache state lost across stats reset")
	}
	if s.Counters().Get("l2.hits") != 1 {
		t.Fatalf("post-reset hits = %d", s.Counters().Get("l2.hits"))
	}
}

func TestInstrAndStoreRequestsExcludedFromHistogram(t *testing.T) {
	cfg := config.Default(1)
	s := NewL2System(cfg)
	// Warm a line, then access it as instruction fetch and store fill.
	warm := &Request{Addr: 0x80}
	s.Submit(warm, 0)
	for now := uint64(0); now < 600; now++ {
		s.Tick(now)
	}
	s.ResetStats()
	s.Submit(&Request{Addr: 0x80, IsInstr: true, IssuedAt: 1000}, 1000)
	s.Submit(&Request{Addr: 0x80, NoWake: true, IssuedAt: 1000}, 1000)
	for now := uint64(1000); now < 1600; now++ {
		s.Tick(now)
	}
	if n := s.HitLatency().Count(); n != 0 {
		t.Fatalf("histogram counted %d non-demand-load accesses", n)
	}
	// But they do count as requests/hits.
	if s.Counters().Get("l2.hits") != 2 {
		t.Fatalf("hits = %d, want 2", s.Counters().Get("l2.hits"))
	}
}

func TestFillOccupancyShorterThanDemand(t *testing.T) {
	// With fill occupancy shorter than the access latency, a miss's
	// total latency reflects the shorter fill pass.
	cfg := config.Default(1)
	want := 2*cfg.Mem.BusDelay + cfg.Mem.L2.Latency + cfg.Mem.L2FillOccupancy + cfg.Mem.MainMemoryLatency
	s := NewL2System(cfg)
	r := &Request{Addr: 0xc0, IssuedAt: 0}
	s.Submit(r, 0)
	var done uint64
	for now := uint64(0); now < 600; now++ {
		for _, d := range s.Tick(now) {
			if d == r {
				done = now
			}
		}
	}
	if done != uint64(want) {
		t.Fatalf("miss latency %d, want %d", done, want)
	}
}

// TestResetMatchesNew: a system left with requests queued at the banks,
// in memory (fixed and overridden latency) and on both buses equals a
// new one field for field after Reset, whatever seed the new run has.
func TestResetMatchesNew(t *testing.T) {
	cfg := config.Default(2)
	s := NewL2System(cfg)
	for now := uint64(0); now < 400; now++ {
		r := &Request{Addr: now * 4160, IssuedAt: now, IsInstr: now%7 == 0}
		if now%5 == 0 {
			r.MissLatency = 900
		}
		s.Submit(r, now)
		s.Tick(now)
		s.DrainMissDetected()
	}
	if !s.Drain() {
		t.Fatal("test wants requests left in flight")
	}
	cfg.Seed++
	s.Reset(cfg)
	if d := resettest.Diff(NewL2System(cfg), s); d != "" {
		t.Errorf("reset L2 system differs from a new one at %s", d)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("resetting to another machine did not panic")
			}
		}()
		s.Reset(config.Default(4))
	}()
}
