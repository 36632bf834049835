package branch

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/rng"
)

func TestPerceptronLearnsAlwaysTaken(t *testing.T) {
	p := NewPerceptron(64, 8)
	pc := uint64(0x1000)
	for i := 0; i < 200; i++ {
		p.Predict(pc)
		p.Update(pc, true)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if p.Predict(pc) {
			correct++
		}
		p.Update(pc, true)
	}
	if correct < 100 {
		t.Fatalf("always-taken accuracy %d/100 after warmup", correct)
	}
}

func TestPerceptronLearnsAlternating(t *testing.T) {
	// An alternating pattern is linearly separable on 1 history bit, so
	// the perceptron must learn it essentially perfectly.
	p := NewPerceptron(64, 8)
	pc := uint64(0x2000)
	taken := false
	for i := 0; i < 500; i++ {
		p.Predict(pc)
		p.Update(pc, taken)
		taken = !taken
	}
	correct := 0
	for i := 0; i < 200; i++ {
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
		taken = !taken
	}
	if correct < 195 {
		t.Fatalf("alternating accuracy %d/200", correct)
	}
}

func TestPerceptronBeatsCoinOnBiasedRandom(t *testing.T) {
	p := NewPerceptron(256, 16)
	r := rng.New(1)
	pc := uint64(0x3000)
	correct, total := 0, 0
	for i := 0; i < 5000; i++ {
		taken := r.Bool(0.85)
		if i > 1000 {
			if p.Predict(pc) == taken {
				correct++
			}
			total++
		} else {
			p.Predict(pc)
		}
		p.Update(pc, taken)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.80 {
		t.Fatalf("biased-random accuracy %.3f, want >= 0.80", acc)
	}
}

func TestPerceptronWeightsSaturate(t *testing.T) {
	p := NewPerceptron(2, 4)
	pc := uint64(0)
	for i := 0; i < 10000; i++ {
		p.Update(pc, true)
	}
	for _, row := range p.weights {
		for _, w := range row {
			if w > weightLimit || w < -weightLimit {
				t.Fatalf("weight %d escaped saturation", w)
			}
		}
	}
}

func TestPerceptronConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPerceptron(0, 8) },
		func() { NewPerceptron(3, 8) },
		func() { NewPerceptron(16, 0) },
		func() { NewPerceptron(16, 64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			f()
		}()
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(256, 4)
	b.Insert(0x1000, 0x2000)
	got, ok := b.Lookup(0x1000)
	if !ok || got != 0x2000 {
		t.Fatalf("lookup = %#x, %t", got, ok)
	}
	if _, ok := b.Lookup(0x1004); ok {
		t.Fatal("phantom hit for un-inserted PC")
	}
}

func TestBTBUpdateExisting(t *testing.T) {
	b := NewBTB(64, 4)
	b.Insert(0x1000, 0x2000)
	b.Insert(0x1000, 0x3000)
	got, ok := b.Lookup(0x1000)
	if !ok || got != 0x3000 {
		t.Fatalf("updated lookup = %#x, %t, want 0x3000", got, ok)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	// 4 sets x 2 ways; PCs mapping to the same set are 4*4=16 bytes apart
	// in the folded index space.
	b := NewBTB(8, 2)
	sets := b.sets
	pcFor := func(i int) uint64 { return uint64(i * sets * 4) } // all map to set 0
	b.Insert(pcFor(1), 0x100)
	b.Insert(pcFor(2), 0x200)
	// Touch 1 so 2 becomes LRU.
	if _, ok := b.Lookup(pcFor(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	b.Insert(pcFor(3), 0x300)
	if _, ok := b.Lookup(pcFor(2)); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if _, ok := b.Lookup(pcFor(1)); !ok {
		t.Fatal("MRU entry 1 was evicted")
	}
	if got, ok := b.Lookup(pcFor(3)); !ok || got != 0x300 {
		t.Fatal("new entry 3 missing")
	}
}

func TestBTBZeroPC(t *testing.T) {
	// PC 0 must be storable despite the empty-tag encoding.
	b := NewBTB(16, 2)
	b.Insert(0, 0xabc)
	got, ok := b.Lookup(0)
	if !ok || got != 0xabc {
		t.Fatalf("zero-PC lookup = %#x, %t", got, ok)
	}
}

func TestBTBConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBTB(0, 1) },
		func() { NewBTB(7, 2) },
		func() { NewBTB(24, 2) }, // 12 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected BTB constructor panic")
				}
			}()
			f()
		}()
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	r.Push(0x200)
	if v, ok := r.Pop(); !ok || v != 0x200 {
		t.Fatalf("pop = %#x, %t", v, ok)
	}
	if v, ok := r.Pop(); !ok || v != 0x100 {
		t.Fatalf("pop = %#x, %t", v, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty stack succeeded")
	}
}

func TestRASWrapOverwritesOldest(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if r.Depth() != 2 {
		t.Fatalf("depth = %d", r.Depth())
	}
	if v, _ := r.Pop(); v != 3 {
		t.Fatalf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Fatalf("pop = %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("stack should be empty after wrap")
	}
}

func TestRASProperty(t *testing.T) {
	// Property: with fewer than capacity pushes, RAS behaves exactly like
	// a stack.
	f := func(vals []uint64) bool {
		if len(vals) > 90 {
			vals = vals[:90]
		}
		r := NewRAS(100)
		for _, v := range vals {
			r.Push(v)
		}
		for i := len(vals) - 1; i >= 0; i-- {
			got, ok := r.Pop()
			if !ok || got != vals[i] {
				return false
			}
		}
		_, ok := r.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorCallReturnPair(t *testing.T) {
	p := New(64, 8, 64, 4, 16, 2)
	call := &isa.Inst{PC: 0x1000, Class: isa.ClassCall, Taken: true, Target: 0x9000}
	ret := &isa.Inst{PC: 0x9004, Class: isa.ClassReturn, Taken: true, Target: 0x1004}
	pr := p.Predict(0, call)
	if !pr.Taken {
		t.Fatal("call must predict taken")
	}
	pr = p.Predict(0, ret)
	if !pr.Taken || pr.Target != 0x1004 {
		t.Fatalf("return predicted %#x, want 0x1004", pr.Target)
	}
	// Thread 1's RAS is private: its return has no prediction.
	pr = p.Predict(1, ret)
	if pr.Target != 0 {
		t.Fatalf("thread-1 RAS should be empty, got %#x", pr.Target)
	}
}

func TestPredictorBranchUsesBTBOnlyWhenTaken(t *testing.T) {
	p := New(64, 8, 64, 4, 16, 1)
	br := &isa.Inst{PC: 0x100, Class: isa.ClassBranch, Taken: true, Target: 0x500}
	// Train taken and install the target.
	for i := 0; i < 100; i++ {
		p.Resolve(br)
	}
	pr := p.Predict(0, br)
	if !pr.Taken || pr.Target != 0x500 {
		t.Fatalf("trained branch predicted %+v", pr)
	}
	// Train strongly not-taken on a different branch.
	nt := &isa.Inst{PC: 0x200, Class: isa.ClassBranch, Taken: false}
	for i := 0; i < 200; i++ {
		p.Resolve(nt)
	}
	pr = p.Predict(0, nt)
	if pr.Taken {
		t.Fatal("not-taken branch predicted taken")
	}
}

func BenchmarkPerceptronPredictUpdate(b *testing.B) {
	p := NewPerceptron(256, 16)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		pc := uint64(i%1024) * 4
		p.Predict(pc)
		p.Update(pc, r.Bool(0.7))
	}
}
