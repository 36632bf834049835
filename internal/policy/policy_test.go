package policy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

// directiveFor returns tid's directive, failing when Tick gave none.
func directiveFor(t *testing.T, ds []Directive, tid int) Directive {
	t.Helper()
	for _, d := range ds {
		if d.Tid == tid {
			return d
		}
	}
	t.Fatalf("no directive for thread %d in %v", tid, ds)
	return Directive{}
}

// acting returns the directives that ask for more than normal fetch.
func acting(ds []Directive) []Directive {
	var out []Directive
	for _, d := range ds {
		if d.Action != ActNone {
			out = append(out, d)
		}
	}
	return out
}

func TestICOUNTIsInert(t *testing.T) {
	p := NewICOUNT()
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	p.OnL2MissDetected(li, 10)
	if ds := p.Tick(1000); len(ds) != 0 {
		t.Fatalf("ICOUNT issued directives: %v", ds)
	}
	if li.L2MissDetected {
		t.Fatal("ICOUNT tracks nothing, so it records no miss signal")
	}
	p.OnResolve(li, 2000)
	p.OnSquash(li)
}

// TestTickDirectsEveryThread: every policy but ICOUNT returns one
// directive per thread on every Tick, ActNone included, and records the
// L2 miss signal on the load.
func TestTickDirectsEveryThread(t *testing.T) {
	cfg := config.Default(2)
	for _, p := range []*Policy{NewFlushS(2, 30), NewFlushNS(2), NewStall(2, 30), NewMFLUSH(&cfg, 1)} {
		li := &LoadInfo{Tid: 1, IssuedAt: 0}
		p.OnL1Miss(li, 0)
		p.OnL2MissDetected(li, 5)
		if !li.L2MissDetected {
			t.Errorf("%+v: miss signal not recorded", p)
		}
		for _, now := range []uint64{0, 10, 1000} {
			ds := p.Tick(now)
			if len(ds) != 2 || ds[0].Tid != 0 || ds[1].Tid != 1 || ds[0].Action != ActNone {
				t.Errorf("%+v: Tick(%d) = %v, want one directive per thread", p, now, ds)
			}
		}
	}
}

func TestFlushSTriggersAfterDelay(t *testing.T) {
	p := NewFlushS(2, 30)
	li := &LoadInfo{Tid: 1, IssuedAt: 100}
	p.OnL1Miss(li, 105)
	// At or before the trigger: nothing.
	for _, now := range []uint64{100, 120, 130} {
		if ds := acting(p.Tick(now)); len(ds) != 0 {
			t.Fatalf("premature directive at %d: %v", now, ds)
		}
	}
	ds := p.Tick(131)
	d := directiveFor(t, ds, 1)
	if d.Action != ActFlush || d.Load != li {
		t.Fatalf("expected flush of load at 131, got %v", ds)
	}
	// Thread 0 has no outstanding loads: normal fetch.
	if d := directiveFor(t, ds, 0); d.Action != ActNone {
		t.Fatalf("directive %v for idle thread", d.Action)
	}
	// After resolve, no more flush demands.
	li.Resolved = true
	p.OnResolve(li, 140)
	if ds := acting(p.Tick(150)); len(ds) != 0 {
		t.Fatalf("directive after resolve: %v", ds)
	}
}

func TestFlushSPicksOldestLoad(t *testing.T) {
	p := NewFlushS(1, 30)
	old := &LoadInfo{Tid: 0, Seq: 1, IssuedAt: 0}
	young := &LoadInfo{Tid: 0, Seq: 2, IssuedAt: 5}
	p.OnL1Miss(old, 0)
	p.OnL1Miss(young, 5)
	ds := acting(p.Tick(100))
	if len(ds) != 1 || ds[0].Load != old {
		t.Fatalf("expected oldest load flushed, got %+v", ds)
	}
}

func TestFlushSSquashRemovesTracking(t *testing.T) {
	p := NewFlushS(1, 30)
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	p.OnSquash(li)
	if len(p.loads[0]) != 0 {
		t.Fatal("squashed load still tracked")
	}
	if ds := acting(p.Tick(100)); len(ds) != 0 {
		t.Fatalf("directive for squashed load: %v", ds)
	}
}

func TestFlushNSOnlyOnDetectedMiss(t *testing.T) {
	p := NewFlushNS(1)
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	// A slow L2 hit never triggers FL-NS, no matter how long.
	if ds := acting(p.Tick(10000)); len(ds) != 0 {
		t.Fatalf("FL-NS fired without a detected miss: %v", ds)
	}
	p.OnL2MissDetected(li, 40)
	ds := acting(p.Tick(41))
	if len(ds) != 1 || ds[0].Action != ActFlush || ds[0].Load != li {
		t.Fatalf("FL-NS did not fire on detected miss: %v", ds)
	}
}

func TestFlushSPanicsOnBadTrigger(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFlushS(1, 0) },
		func() { NewStall(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStallLevelsWithLoadLifetime(t *testing.T) {
	p := NewStall(2, 50)
	li := &LoadInfo{Tid: 0, IssuedAt: 0}
	p.OnL1Miss(li, 0)
	if d := directiveFor(t, p.Tick(40), 0); d.Action != ActNone {
		t.Fatalf("before trigger: %v", d)
	}
	if d := directiveFor(t, p.Tick(51), 0); d.Action != ActStall {
		t.Fatalf("past trigger: %v, want stall", d)
	}
	// Stall must never escalate to flush.
	for now := uint64(60); now < 1000; now += 100 {
		if d := directiveFor(t, p.Tick(now), 0); d.Action == ActFlush {
			t.Fatal("STALL escalated to flush")
		}
	}
	p.OnResolve(li, 1000)
	if d := directiveFor(t, p.Tick(1001), 0); d.Action != ActNone {
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
	for _, p := range []*Policy{NewFlushS(2, 30), NewStall(2, 30)} {
		if got := p.NextEvent(100); got != math.MaxUint64 {
			t.Fatalf("%+v with no loads: next event %d", p, got)
		}
		p.OnL1Miss(li, 100)
		if got := p.NextEvent(100); got != 131 {
			t.Fatalf("%+v: next event %d, want 131 (first cycle past the trigger)", p, got)
		}
		if got := p.NextEvent(131); got != math.MaxUint64 {
			t.Fatalf("%+v past the trigger: next event %d", p, got)
		}
		if d := directiveFor(t, p.Tick(130), 1); d.Action != ActNone {
			t.Fatalf("%+v: directive %v before the next event", p, d.Action)
		}
		if d := directiveFor(t, p.Tick(131), 1); d.Action == ActNone {
			t.Fatalf("%+v: no directive at the next event", p)
		}
	}
	for _, p := range []*Policy{NewICOUNT(), NewFlushNS(2)} {
		p.OnL1Miss(li, 100)
		if got := p.NextEvent(100); got != math.MaxUint64 {
			t.Fatalf("%+v is event-driven, but next event %d", p, got)
		}
	}
}

func TestMCRegInitAndUpdate(t *testing.T) {
	f := NewMCRegFile(4, 1, 22)
	for b := 0; b < 4; b++ {
		if got := f.Predict(b); got != 22 {
			t.Fatalf("bank %d initial prediction %d, want 22", b, got)
		}
	}
	f.Update(2, 55)
	if got := f.Predict(2); got != 55 {
		t.Fatalf("bank 2 prediction %d, want 55 (paper Figure 7 example)", got)
	}
	if got := f.Predict(1); got != 22 {
		t.Fatalf("bank 1 prediction %d, unaffected banks must not change", got)
	}
}

func TestMCRegSaturates(t *testing.T) {
	f := NewMCRegFile(1, 1, 0)
	f.Update(0, 10000)
	if got := f.Predict(0); got != MCRegMax {
		t.Fatalf("prediction %d, want saturation at %d", got, MCRegMax)
	}
	f.Update(0, -5)
	if got := f.Predict(0); got != 0 {
		t.Fatalf("prediction %d, want clamp at 0", got)
	}
}

func TestMCRegHistoryMaxReduction(t *testing.T) {
	f := NewMCRegFile(1, 3, 20)
	f.Update(0, 60)
	f.Update(0, 30)
	// History: [30, 60, 20] -> max = 60.
	if got := f.Predict(0); got != 60 {
		t.Fatalf("history prediction %d, want 60", got)
	}
	f.Update(0, 10)
	f.Update(0, 10)
	f.Update(0, 10)
	if got := f.Predict(0); got != 10 {
		t.Fatalf("after history drains, prediction %d, want 10", got)
	}
}

func TestMCRegSnapshotAndPanics(t *testing.T) {
	f := NewMCRegFile(2, 1, 7)
	f.Update(1, 99)
	snap := f.AppendSnapshot(nil)
	if snap[0] != 7 || snap[1] != 99 {
		t.Fatalf("snapshot = %v", snap)
	}
	if f.Banks() != 2 {
		t.Fatalf("banks = %d", f.Banks())
	}
	for _, fn := range []func(){
		func() { NewMCRegFile(0, 1, 0) },
		func() { NewMCRegFile(1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}

func TestEnvironmentThresholds(t *testing.T) {
	cfg := config.Default(4)
	env := EnvironmentFor(&cfg)
	if env.Min != cfg.MinL2Latency() || env.Max != cfg.MaxL2Latency() || env.MT != cfg.MTDelay() {
		t.Fatalf("environment %v does not match config derivations", env)
	}
	if env.Suspicious() != env.Min+env.MT {
		t.Fatalf("suspicious = %d, want MIN+MT = %d", env.Suspicious(), env.Min+env.MT)
	}
	// Single core: MT = 0.
	cfg1 := config.Default(1)
	env1 := EnvironmentFor(&cfg1)
	if env1.MT != 0 {
		t.Fatalf("single-core MT = %d", env1.MT)
	}
}

func TestBarrierFormulaAndClamps(t *testing.T) {
	cfg := config.Default(2)
	env := EnvironmentFor(&cfg)
	pred := 50
	want := pred + env.Min/2 + env.MT
	if got := env.Barrier(pred); got != want {
		t.Fatalf("Barrier(%d) = %d, want %d", pred, got, want)
	}
	// Property: the barrier is always within (suspicious, MAX+MT].
	f := func(pRaw uint8) bool {
		b := env.Barrier(int(pRaw))
		return b > env.Suspicious() && b <= env.Max+env.MT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Extreme predictions clamp rather than misbehave.
	if env.Barrier(-1000) <= env.Suspicious() {
		t.Fatal("low clamp failed")
	}
	if env.Barrier(1<<20) > env.Max+env.MT {
		t.Fatal("high clamp failed")
	}
}

func TestMFLUSHPreventiveThenFlush(t *testing.T) {
	cfg := config.Default(4)
	m := NewMFLUSH(&cfg, 1)
	env := EnvironmentFor(&cfg)
	li := &LoadInfo{Tid: 0, IssuedAt: 0, Bank: 1}
	m.OnL1Miss(li, 0)

	// Below suspicious: normal.
	if d := directiveFor(t, m.Tick(uint64(env.Suspicious()-1)), 0); d.Action != ActNone {
		t.Fatalf("below suspicious: %v", d.Action)
	}
	// Past suspicious, below barrier: Preventive State.
	if d := directiveFor(t, m.Tick(uint64(env.Suspicious()+1)), 0); d.Action != ActStall {
		t.Fatalf("past suspicious: %v, want stall", d.Action)
	}
	// Past the barrier: flush.
	barrier := env.Barrier(env.Min) // MCReg initialised to Min
	if d := directiveFor(t, m.Tick(uint64(barrier+1)), 0); d.Action != ActFlush || d.Load != li {
		t.Fatalf("past barrier: %v", d)
	}
}

func TestMFLUSHReleasesOnResolve(t *testing.T) {
	cfg := config.Default(4)
	m := NewMFLUSH(&cfg, 1)
	env := EnvironmentFor(&cfg)
	li := &LoadInfo{Tid: 0, IssuedAt: 0, Bank: 0}
	m.OnL1Miss(li, 0)
	now := uint64(env.Suspicious() + 2)
	if d := directiveFor(t, m.Tick(now), 0); d.Action != ActStall {
		t.Fatal("expected preventive state")
	}
	li.Resolved = true
	li.ResolvedAt = now + 1
	li.L2Hit = true
	m.OnResolve(li, now+1)
	if d := directiveFor(t, m.Tick(now+2), 0); d.Action != ActNone {
		t.Fatalf("after resolve: %v, want none", d.Action)
	}
	if len(m.loads[0]) != 0 {
		t.Fatal("resolved load still tracked")
	}
}

func TestMFLUSHTrainsMCRegOnHits(t *testing.T) {
	cfg := config.Default(2)
	m := NewMFLUSH(&cfg, 1)
	li := &LoadInfo{Tid: 0, IssuedAt: 100, Bank: 3}
	m.OnL1Miss(li, 100)
	li.Resolved, li.L2Hit, li.ResolvedAt = true, true, 160
	m.OnResolve(li, 160)
	if got := m.MCReg().Predict(3); got != 60 {
		t.Fatalf("MCReg after 60-cycle hit = %d", got)
	}
	// A later load to the same bank inherits the longer barrier.
	li2 := &LoadInfo{Tid: 0, IssuedAt: 200, Bank: 3}
	m.OnL1Miss(li2, 200)
	barrier := uint64(200 + EnvironmentFor(&cfg).Barrier(60))
	if d := directiveFor(t, m.Tick(barrier), 0); d.Action == ActFlush {
		t.Fatal("flushed at (not past) the adapted barrier")
	}
	if d := directiveFor(t, m.Tick(barrier+1), 0); d.Action != ActFlush {
		t.Fatalf("not flushed past the adapted barrier: %v", d.Action)
	}
}

func TestMFLUSHSkipsTrainingOnMissesAndTLB(t *testing.T) {
	cfg := config.Default(2)
	m := NewMFLUSH(&cfg, 1)
	before := m.MCReg().Predict(0)

	miss := &LoadInfo{Tid: 0, IssuedAt: 0, Bank: 0}
	m.OnL1Miss(miss, 0)
	miss.Resolved, miss.L2Hit, miss.ResolvedAt = true, false, 284
	m.OnResolve(miss, 284)
	if got := m.MCReg().Predict(0); got != before {
		t.Fatalf("L2 miss trained MCReg: %d", got)
	}

	tlb := &LoadInfo{Tid: 0, IssuedAt: 0, Bank: 0, TLBMiss: true, L2Hit: true}
	m.OnL1Miss(tlb, 0)
	tlb.Resolved, tlb.ResolvedAt = true, 330
	m.OnResolve(tlb, 330)
	if got := m.MCReg().Predict(0); got != before {
		t.Fatalf("TLB-distorted hit trained MCReg: %d", got)
	}
}

func TestMFLUSHIgnoresDetectedMissSignal(t *testing.T) {
	// The published MFLUSH is purely Barrier-driven: the non-speculative
	// miss signal must not trigger an early flush (that would degrade it
	// to FLUSH-NS behaviour and forfeit the energy advantage).
	cfg := config.Default(4)
	m := NewMFLUSH(&cfg, 1)
	env := EnvironmentFor(&cfg)
	li := &LoadInfo{Tid: 1, IssuedAt: 0, Bank: 2}
	m.OnL1Miss(li, 0)
	m.OnL2MissDetected(li, 40)
	if !li.L2MissDetected {
		t.Fatal("signal should be recorded on the load")
	}
	if d := directiveFor(t, m.Tick(41), 1); d.Action == ActFlush {
		t.Fatal("detected miss must not flush before the Barrier")
	}
	// The Barrier still applies as usual.
	barrier := env.Barrier(env.Min)
	if d := directiveFor(t, m.Tick(uint64(barrier+1)), 1); d.Action != ActFlush {
		t.Fatalf("past barrier: %v, want flush", d.Action)
	}
}

func TestMFLUSHSquashDropsTracking(t *testing.T) {
	cfg := config.Default(2)
	m := NewMFLUSH(&cfg, 1)
	li := &LoadInfo{Tid: 0, IssuedAt: 0, Bank: 0}
	m.OnL1Miss(li, 0)
	m.OnSquash(li)
	if len(m.loads[0]) != 0 {
		t.Fatal("squashed load still tracked")
	}
	if d := directiveFor(t, m.Tick(100000), 0); d.Action != ActNone {
		t.Fatalf("directive for squashed load: %v", d.Action)
	}
}

func TestMFLUSHTelemetry(t *testing.T) {
	cfg := config.Default(2)
	m := NewMFLUSH(&cfg, 1)
	env := EnvironmentFor(&cfg)
	li := &LoadInfo{Tid: 0, IssuedAt: 0, Bank: 0}
	m.OnL1Miss(li, 0)
	m.Tick(uint64(env.Max + env.MT + 10)) // past max barrier: flush
	li.Resolved, li.L2Hit, li.ResolvedAt = true, true, 50
	m.OnResolve(li, 50)
	preds, updates, flushes, _ := m.Telemetry()
	if preds != 1 || updates != 1 || flushes != 1 {
		t.Fatalf("telemetry = %d/%d/%d, want 1/1/1", preds, updates, flushes)
	}
}

func TestMFLUSHNextEventAndSkip(t *testing.T) {
	cfg := config.Default(4)
	m := NewMFLUSH(&cfg, 1)
	env := EnvironmentFor(&cfg)
	if got := m.NextEvent(0); got != math.MaxUint64 {
		t.Fatalf("no loads: next event %d", got)
	}
	li := &LoadInfo{Tid: 1, IssuedAt: 10, Bank: 2}
	m.OnL1Miss(li, 10)
	susp := uint64(10 + env.Suspicious() + 1)
	barrier := uint64(10 + env.Barrier(env.Min) + 1)
	if got := m.NextEvent(10); got != susp {
		t.Fatalf("next event %d, want the suspicious crossing %d", got, susp)
	}
	if got := m.NextEvent(susp); got != barrier {
		t.Fatalf("next event %d, want the Barrier crossing %d", got, barrier)
	}
	if got := m.NextEvent(barrier); got != math.MaxUint64 {
		t.Fatalf("past the Barrier: next event %d", got)
	}
	// Skipped cycles repeat the last Tick's directives in the telemetry.
	m.Tick(susp)
	m.Skip(5)
	if _, _, flushes, prev := m.Telemetry(); flushes != 0 || prev != 6 {
		t.Fatalf("after stall tick + 5 skipped: flushes %d preventive %d, want 0/6", flushes, prev)
	}
	m.Tick(barrier)
	m.Skip(3)
	if _, _, flushes, prev := m.Telemetry(); flushes != 4 || prev != 6 {
		t.Fatalf("after flush tick + 3 skipped: flushes %d preventive %d, want 4/6", flushes, prev)
	}
}
