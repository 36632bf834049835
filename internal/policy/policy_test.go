package policy

import (
	"math"
	"testing"
)

func findDirective(ds []Directive, tid int) (Directive, bool) {
	for _, d := range ds {
		if d.Tid == tid {
			return d, true
		}
	}
	return Directive{}, false
}

func TestICOUNTIsInert(t *testing.T) {
	p := NewICOUNT()
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	p.OnL2MissDetected(li, 10)
	if ds := p.Tick(1000); len(ds) != 0 {
		t.Fatalf("ICOUNT issued directives: %v", ds)
	}
	p.OnResolve(li, 2000)
}

func TestFlushSTriggersAfterDelay(t *testing.T) {
	p := NewFlushS(2, 30)
	li := &LoadInfo{Tid: 1, IssuedAt: 100}
	p.OnL1Miss(li, 105)
	// At or before the trigger: nothing.
	for _, now := range []uint64{100, 120, 130} {
		if ds := p.Tick(now); len(ds) != 0 {
			t.Fatalf("premature directive at %d: %v", now, ds)
		}
	}
	ds := p.Tick(131)
	d, ok := findDirective(ds, 1)
	if !ok || d.Action != ActFlush || d.Load != li {
		t.Fatalf("expected flush of load at 131, got %v", ds)
	}
	// Thread 0 has no outstanding loads: no directive for it.
	if _, ok := findDirective(ds, 0); ok {
		t.Fatal("directive for idle thread")
	}
	// After resolve, no more flush demands.
	li.Resolved = true
	p.OnResolve(li, 140)
	if ds := p.Tick(150); len(ds) != 0 {
		t.Fatalf("directive after resolve: %v", ds)
	}
}

func TestFlushSPicksOldestLoad(t *testing.T) {
	p := NewFlushS(1, 30)
	old := &LoadInfo{Tid: 0, Seq: 1, IssuedAt: 0}
	young := &LoadInfo{Tid: 0, Seq: 2, IssuedAt: 5}
	p.OnL1Miss(old, 0)
	p.OnL1Miss(young, 5)
	ds := p.Tick(100)
	if len(ds) != 1 || ds[0].Load != old {
		t.Fatalf("expected oldest load flushed, got %+v", ds)
	}
}

func TestFlushSSquashRemovesTracking(t *testing.T) {
	p := NewFlushS(1, 30)
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	p.OnSquash(li)
	if p.Outstanding(0) != 0 {
		t.Fatal("squashed load still tracked")
	}
	if ds := p.Tick(100); len(ds) != 0 {
		t.Fatalf("directive for squashed load: %v", ds)
	}
}

func TestFlushNSOnlyOnDetectedMiss(t *testing.T) {
	p := NewFlushNS(1)
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	// A slow L2 hit never triggers FL-NS, no matter how long.
	if ds := p.Tick(10000); len(ds) != 0 {
		t.Fatalf("FL-NS fired without a detected miss: %v", ds)
	}
	p.OnL2MissDetected(li, 40)
	ds := p.Tick(41)
	if len(ds) != 1 || ds[0].Action != ActFlush || ds[0].Load != li {
		t.Fatalf("FL-NS did not fire on detected miss: %v", ds)
	}
}

func TestFlushSPanicsOnBadTrigger(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFlushS(1, 0)
}

func TestStallLevelsWithLoadLifetime(t *testing.T) {
	p := NewStall(2, 50)
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	d, ok := findDirective(p.Tick(40), 0)
	if !ok || d.Action != ActNone {
		t.Fatalf("before trigger: %v", d)
	}
	d, _ = findDirective(p.Tick(51), 0)
	if d.Action != ActStall {
		t.Fatalf("past trigger: %v, want stall", d)
	}
	// Stall must never escalate to flush.
	for now := uint64(60); now < 1000; now += 100 {
		d, _ = findDirective(p.Tick(now), 0)
		if d.Action == ActFlush {
			t.Fatal("STALL escalated to flush")
		}
	}
	p.OnResolve(li, 1000)
	d, _ = findDirective(p.Tick(1001), 0)
	if d.Action != ActNone {
		t.Fatalf("after resolve: %v, want none", d)
	}
}

func TestLoadInfoElapsed(t *testing.T) {
	li := &LoadInfo{IssuedAt: 100}
	if li.Elapsed(50) != 0 {
		t.Fatal("elapsed before issue should clamp to 0")
	}
	if li.Elapsed(130) != 30 {
		t.Fatalf("elapsed = %d", li.Elapsed(130))
	}
}

func TestActionString(t *testing.T) {
	if ActNone.String() != "none" || ActStall.String() != "stall" || ActFlush.String() != "flush" {
		t.Fatal("action names wrong")
	}
	if Action(9).String() == "" {
		t.Fatal("unknown action should still render")
	}
}

func TestNextEvent(t *testing.T) {
	li := &LoadInfo{Tid: 1, IssuedAt: 100}
	for _, p := range []Policy{NewFlushS(2, 30), NewStall(2, 30)} {
		if got := p.NextEvent(100); got != math.MaxUint64 {
			t.Fatalf("%T with no loads: next event %d", p, got)
		}
		p.OnL1Miss(li, 100)
		if got := p.NextEvent(100); got != 131 {
			t.Fatalf("%T: next event %d, want 131 (first cycle past the trigger)", p, got)
		}
		if got := p.NextEvent(131); got != math.MaxUint64 {
			t.Fatalf("%T past the trigger: next event %d", p, got)
		}
		if d, _ := findDirective(p.Tick(130), 1); d.Action != ActNone {
			t.Fatalf("%T: directive %v before the next event", p, d.Action)
		}
		if d, _ := findDirective(p.Tick(131), 1); d.Action == ActNone {
			t.Fatalf("%T: no directive at the next event", p)
		}
	}
	for _, p := range []Policy{NewICOUNT(), NewFlushNS(2)} {
		p.OnL1Miss(li, 100)
		if got := p.NextEvent(100); got != math.MaxUint64 {
			t.Fatalf("%T is event-driven, but next event %d", p, got)
		}
	}
}
