package policy

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
)

// This file keeps reference models of the policies as they were before
// they became per-load deadlines on one Policy type: a shared issue-order
// load tracker under FLUSH-S, FLUSH-NS and STALL-S, and MFLUSH with its
// own list of frozen Barriers. FuzzPolicy drives Policy beside them.

type refPolicy interface {
	OnL1Miss(li *LoadInfo, now uint64)
	OnL2MissDetected(li *LoadInfo, now uint64)
	OnResolve(li *LoadInfo, now uint64)
	OnSquash(li *LoadInfo)
	Tick(now uint64) []Directive
	NextEvent(now uint64) uint64
	Skip(n uint64)
}

type refICOUNT struct{}

func (refICOUNT) OnL1Miss(*LoadInfo, uint64)         {}
func (refICOUNT) OnL2MissDetected(*LoadInfo, uint64) {}
func (refICOUNT) OnResolve(*LoadInfo, uint64)        {}
func (refICOUNT) OnSquash(*LoadInfo)                 {}
func (refICOUNT) Tick(uint64) []Directive            { return nil }
func (refICOUNT) NextEvent(uint64) uint64            { return math.MaxUint64 }
func (refICOUNT) Skip(uint64)                        {}

type refTracker struct{ loads [][]*LoadInfo }

func (t *refTracker) add(li *LoadInfo) { t.loads[li.Tid] = append(t.loads[li.Tid], li) }

func (t *refTracker) remove(li *LoadInfo) {
	s := t.loads[li.Tid]
	for i, x := range s {
		if x == li {
			t.loads[li.Tid] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

func (t *refTracker) nextPast(now, trigger uint64) uint64 {
	next := uint64(math.MaxUint64)
	for _, loads := range t.loads {
		for _, li := range loads {
			if at := li.IssuedAt + trigger + 1; at > now && at < next {
				next = at
			}
		}
	}
	return next
}

// refFlush is FLUSH-S (trigger > 0) or FLUSH-NS (nonSpec).
type refFlush struct {
	trigger uint64
	nonSpec bool
	tr      refTracker
}

func (f *refFlush) OnL1Miss(li *LoadInfo, _ uint64)         { f.tr.add(li) }
func (f *refFlush) OnL2MissDetected(li *LoadInfo, _ uint64) { li.L2MissDetected = true }
func (f *refFlush) OnResolve(li *LoadInfo, _ uint64)        { f.tr.remove(li) }
func (f *refFlush) OnSquash(li *LoadInfo)                   { f.tr.remove(li) }
func (*refFlush) Skip(uint64)                               {}

func (f *refFlush) Tick(now uint64) []Directive {
	var out []Directive
	for tid := range f.tr.loads {
		for _, li := range f.tr.loads[tid] {
			triggered := li.Elapsed(now) > f.trigger
			if f.nonSpec {
				triggered = li.L2MissDetected
			}
			if triggered {
				out = append(out, Directive{Tid: tid, Action: ActFlush, Load: li})
				break
			}
		}
	}
	return out
}

func (f *refFlush) NextEvent(now uint64) uint64 {
	if f.nonSpec {
		return math.MaxUint64
	}
	return f.tr.nextPast(now, f.trigger)
}

type refStall struct {
	trigger uint64
	tr      refTracker
}

func (s *refStall) OnL1Miss(li *LoadInfo, _ uint64)  { s.tr.add(li) }
func (*refStall) OnL2MissDetected(*LoadInfo, uint64) {}
func (s *refStall) OnResolve(li *LoadInfo, _ uint64) { s.tr.remove(li) }
func (s *refStall) OnSquash(li *LoadInfo)            { s.tr.remove(li) }
func (*refStall) Skip(uint64)                        {}

func (s *refStall) Tick(now uint64) []Directive {
	var out []Directive
	for tid := range s.tr.loads {
		act := ActNone
		for _, li := range s.tr.loads[tid] {
			if li.Elapsed(now) > s.trigger {
				act = ActStall
				break
			}
		}
		out = append(out, Directive{Tid: tid, Action: act})
	}
	return out
}

func (s *refStall) NextEvent(now uint64) uint64 { return s.tr.nextPast(now, s.trigger) }

type refMFLUSH struct {
	env   OperationalEnvironment
	mcreg *MCRegFile
	loads [][]refTrackedLoad

	predictions, updates, flushes, preventive, lastFlushes, lastStalls uint64
}

type refTrackedLoad struct {
	li      *LoadInfo
	barrier uint64
}

func newRefMFLUSH(cfg *config.Config, historyLen int) *refMFLUSH {
	env := EnvironmentFor(cfg)
	return &refMFLUSH{
		env:   env,
		mcreg: NewMCRegFile(cfg.Mem.L2.Banks, historyLen, env.Min),
		loads: make([][]refTrackedLoad, cfg.Core.ThreadsPerCore),
	}
}

func (m *refMFLUSH) OnL1Miss(li *LoadInfo, _ uint64) {
	pred := m.mcreg.Predict(li.Bank)
	m.predictions++
	barrier := li.IssuedAt + uint64(m.env.Barrier(pred))
	m.loads[li.Tid] = append(m.loads[li.Tid], refTrackedLoad{li: li, barrier: barrier})
}

func (m *refMFLUSH) OnL2MissDetected(li *LoadInfo, _ uint64) { li.L2MissDetected = true }

func (m *refMFLUSH) OnResolve(li *LoadInfo, _ uint64) {
	m.drop(li)
	if li.L2Hit && !li.TLBMiss {
		m.mcreg.Update(li.Bank, int(li.ResolvedAt-li.IssuedAt))
		m.updates++
	}
}

func (m *refMFLUSH) OnSquash(li *LoadInfo) { m.drop(li) }

func (m *refMFLUSH) drop(li *LoadInfo) {
	s := m.loads[li.Tid]
	for i := range s {
		if s[i].li == li {
			m.loads[li.Tid] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

func (m *refMFLUSH) Tick(now uint64) []Directive {
	var out []Directive
	m.lastFlushes, m.lastStalls = 0, 0
	susp := uint64(m.env.Suspicious())
	for tid := range m.loads {
		act := ActNone
		var offender *LoadInfo
		for i := range m.loads[tid] {
			t := &m.loads[tid][i]
			if now > t.barrier {
				act = ActFlush
				offender = t.li
				break
			}
			if t.li.Elapsed(now) > susp {
				act = ActStall
			}
		}
		switch act {
		case ActFlush:
			m.lastFlushes++
		case ActStall:
			m.lastStalls++
		}
		out = append(out, Directive{Tid: tid, Action: act, Load: offender})
	}
	m.flushes += m.lastFlushes
	m.preventive += m.lastStalls
	return out
}

func (m *refMFLUSH) NextEvent(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	susp := uint64(m.env.Suspicious())
	for _, loads := range m.loads {
		for i := range loads {
			if at := loads[i].li.IssuedAt + susp + 1; at > now && at < next {
				next = at
			}
			if at := loads[i].barrier + 1; at > now && at < next {
				next = at
			}
		}
	}
	return next
}

func (m *refMFLUSH) Skip(n uint64) {
	m.flushes += n * m.lastFlushes
	m.preventive += n * m.lastStalls
}

// fuzzLoad is one load as each side sees it: the policies under test
// record the miss signal on their own copy.
type fuzzLoad struct {
	got, want *LoadInfo
}

// FuzzPolicy drives Policy and the reference model of the same policy
// through one random sequence of On*/Tick/NextEvent/Skip calls, with loads
// issued up to 32 cycles after the current cycle as well as before it,
// and requires the same stall and flush directives (with the same
// offending load), the same NextEvent, and for MFLUSH the same MCReg
// state and telemetry.
func FuzzPolicy(f *testing.F) {
	f.Add(uint8(0), uint16(30), []byte{0, 1, 2, 3, 6, 40, 4, 5, 0, 9, 9, 9, 6, 90, 4, 1, 0, 4, 2, 0, 1})
	f.Add(uint8(1), uint16(0), []byte{0, 0, 0, 0, 0, 3, 5, 9, 1, 0, 4, 5, 6, 200, 4, 2, 1, 1, 4})
	f.Add(uint8(2), uint16(25), []byte{0, 7, 7, 7, 0, 1, 1, 1, 6, 30, 4, 5, 3, 1, 4, 6, 9, 4})
	f.Add(uint8(3), uint16(0), []byte{0, 2, 3, 4, 6, 60, 4, 5, 2, 0, 1, 0, 6, 8, 5, 4, 0, 2, 3, 0, 6, 255, 4, 7, 9})
	f.Add(uint8(7), uint16(9), []byte{0, 1, 1, 0, 0, 2, 2, 1, 6, 180, 4, 5, 7, 50, 4, 2, 0, 0, 4, 2, 1, 1})
	f.Add(uint8(4), uint16(1), []byte{0, 1, 2, 3, 1, 0, 4, 5, 2, 0, 0})
	f.Fuzz(func(t *testing.T, kind uint8, trigger uint16, ops []byte) {
		cores := 1 + int(trigger%4)
		cfg := config.Default(cores)
		cfg.Core.ThreadsPerCore = 1 + int(kind>>3)%4
		threads := cfg.Core.ThreadsPerCore
		trig := 1 + int(trigger)
		var got *Policy
		var want refPolicy
		switch kind % 5 {
		case 0:
			got, want = NewFlushS(threads, trig), &refFlush{trigger: uint64(trig), tr: refTracker{make([][]*LoadInfo, threads)}}
		case 1:
			got, want = NewFlushNS(threads), &refFlush{nonSpec: true, tr: refTracker{make([][]*LoadInfo, threads)}}
		case 2:
			got, want = NewStall(threads, trig), &refStall{trigger: uint64(trig), tr: refTracker{make([][]*LoadInfo, threads)}}
		case 3:
			h := 1 + int(trigger>>2)%4
			got, want = NewMFLUSH(&cfg, h), newRefMFLUSH(&cfg, h)
		default:
			got, want = NewICOUNT(), refICOUNT{}
		}

		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		now := uint64(1000)
		var seq uint64
		var live []fuzzLoad
		pick := func() (fuzzLoad, int, bool) {
			if len(live) == 0 {
				return fuzzLoad{}, 0, false
			}
			i := next() % len(live)
			return live[i], i, true
		}
		end := func(i int) { live = append(live[:i], live[i+1:]...) }
		for len(ops) > 0 {
			switch next() % 7 {
			case 0: // a correct-path load misses L1
				seq++
				li := LoadInfo{
					Tid:      next() % threads,
					Seq:      seq,
					IssuedAt: now + uint64(next()%64) - 32,
					Bank:     next() % cfg.Mem.L2.Banks,
				}
				li.TLBMiss = li.IssuedAt%5 == 0
				l := fuzzLoad{got: &li, want: new(LoadInfo)}
				*l.want = li
				live = append(live, l)
				got.OnL1Miss(l.got, now)
				want.OnL1Miss(l.want, now)
			case 1: // the L2 tag check misses
				if l, _, ok := pick(); ok {
					got.OnL2MissDetected(l.got, now)
					want.OnL2MissDetected(l.want, now)
				}
			case 2: // the data arrives
				if l, i, ok := pick(); ok {
					hit := next()%2 == 0
					for _, li := range []*LoadInfo{l.got, l.want} {
						li.Resolved, li.ResolvedAt, li.L2Hit = true, now, hit
					}
					got.OnResolve(l.got, now)
					want.OnResolve(l.want, now)
					end(i)
					if m, ok := want.(*refMFLUSH); ok && !reflect.DeepEqual(got.mcreg, m.mcreg) {
						t.Fatalf("cycle %d: MCReg %+v, reference %+v", now, got.mcreg, m.mcreg)
					}
				}
			case 3: // the load is squashed
				if l, i, ok := pick(); ok {
					got.OnSquash(l.got)
					want.OnSquash(l.want)
					l.got.Resolved, l.want.Resolved = true, true
					end(i)
				}
			case 4:
				g, w := acting(got.Tick(now)), acting(want.Tick(now))
				if len(g) != len(w) {
					t.Fatalf("cycle %d: directives %v, reference %v", now, g, w)
				}
				for i := range g {
					same := g[i].Tid == w[i].Tid && g[i].Action == w[i].Action
					if g[i].Action == ActFlush {
						same = same && g[i].Load.Seq == w[i].Load.Seq
					}
					if !same {
						t.Fatalf("cycle %d: directive %+v, reference %+v", now, g[i], w[i])
					}
				}
			case 5:
				if g, w := got.NextEvent(now), want.NextEvent(now); g != w {
					t.Fatalf("cycle %d: next event %d, reference %d", now, g, w)
				}
			case 6: // time passes, slept through after a Tick
				n := uint64(next())
				now += n
				got.Skip(n)
				want.Skip(n)
			}
		}
		if m, ok := want.(*refMFLUSH); ok {
			var tel [4]uint64
			tel[0], tel[1], tel[2], tel[3] = got.Telemetry()
			if tel != [4]uint64{m.predictions, m.updates, m.flushes, m.preventive} {
				t.Fatalf("telemetry %v, reference %d/%d/%d/%d", tel, m.predictions, m.updates, m.flushes, m.preventive)
			}
		}
	})
}
