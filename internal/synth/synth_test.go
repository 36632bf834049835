package synth

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
)

func TestAllProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("profile count = %d, want 26 (letters a-z)", len(ps))
	}
	letters := map[byte]bool{}
	names := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if letters[p.Letter] {
			t.Errorf("duplicate letter %c", p.Letter)
		}
		if names[p.Name] {
			t.Errorf("duplicate name %s", p.Name)
		}
		letters[p.Letter] = true
		names[p.Name] = true
	}
	// The letter map must cover a..z exactly (paper Figure 1).
	for ch := byte('a'); ch <= 'z'; ch++ {
		if !letters[ch] {
			t.Errorf("letter %c missing", ch)
		}
	}
}

func TestLookups(t *testing.T) {
	p, ok := ByLetter('d')
	if !ok || p.Name != "mcf" {
		t.Fatalf("ByLetter('d') = %q, %t; want mcf", p.Name, ok)
	}
	p, ok = ByName("swim")
	if !ok || p.Letter != 'n' {
		t.Fatalf("ByName(swim) = %c, %t", p.Letter, ok)
	}
	if _, ok := ByLetter('?'); ok {
		t.Fatal("phantom profile for '?'")
	}
	if _, ok := ByName("doom"); ok {
		t.Fatal("phantom profile for doom")
	}
}

func TestMemBoundClassification(t *testing.T) {
	// The paper's workload construction depends on having both kinds.
	for _, name := range []string{"mcf", "art", "swim", "lucas", "equake", "ammp"} {
		p, _ := ByName(name)
		if !p.MemBound() {
			t.Errorf("%s should classify memory-bound", name)
		}
	}
	for _, name := range []string{"gzip", "crafty", "eon", "mesa", "perlbmk", "sixtrack"} {
		p, _ := ByName(name)
		if p.MemBound() {
			t.Errorf("%s should classify compute-bound", name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("vpr")
	a := NewGenerator(p, 42, 0)
	b := NewGenerator(p, 42, 0)
	var ia, ib isa.Inst
	for i := 0; i < 5000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("diverged at %d: %+v vs %+v", i, ia, ib)
		}
	}
	// Different seed: different stream.
	c := NewGenerator(p, 43, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&ia)
		c.Next(&ib)
		if ia == ib {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("seeds 42/43 nearly identical: %d/1000 equal", same)
	}
}

func TestGeneratorMixMatchesProfile(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "swim"} {
		p, _ := ByName(name)
		g := NewGenerator(p, 7, 0)
		var in isa.Inst
		const n = 200000
		counts := map[isa.Class]int{}
		for i := 0; i < n; i++ {
			g.Next(&in)
			counts[in.Class]++
		}
		loadFrac := float64(counts[isa.ClassLoad]) / n
		// Loads are emitted from body instructions only, so the
		// observed fraction is diluted by terminators (~1/blockLen).
		bodyShare := 1 - 1/float64(p.AvgBlockLen)
		wantLoad := p.LoadFrac * bodyShare
		if math.Abs(loadFrac-wantLoad) > 0.04 {
			t.Errorf("%s: load fraction %.3f, want ~%.3f", name, loadFrac, wantLoad)
		}
		ctrl := float64(counts[isa.ClassBranch]+counts[isa.ClassCall]+counts[isa.ClassReturn]) / n
		wantCtrl := 1 / (float64(p.AvgBlockLen)/2 + float64(p.AvgBlockLen)/2 + 1)
		// Average emitted block length is roughly AvgBlockLen; allow slack.
		if ctrl < wantCtrl/2 || ctrl > wantCtrl*2.5 {
			t.Errorf("%s: control fraction %.3f implausible (mean block %d)", name, ctrl, p.AvgBlockLen)
		}
	}
}

func TestGeneratorPCsFollowControlFlow(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 3, 0)
	var prev, cur isa.Inst
	g.Next(&prev)
	for i := 0; i < 50000; i++ {
		g.Next(&cur)
		if prev.Class.IsControl() && prev.Taken {
			if cur.PC != prev.Target {
				t.Fatalf("taken control at %#x targets %#x but next PC is %#x",
					prev.PC, prev.Target, cur.PC)
			}
		} else if !prev.Class.IsControl() {
			if cur.PC != prev.PC+4 {
				t.Fatalf("sequential PC broken: %#x -> %#x", prev.PC, cur.PC)
			}
		} else if cur.PC != prev.PC+4 { // not-taken control falls through
			t.Fatalf("not-taken control at %#x falls to %#x", prev.PC, cur.PC)
		}
		prev = cur
	}
}

func TestGeneratorAddressSpacesDisjoint(t *testing.T) {
	p, _ := ByName("vpr")
	g0 := NewGenerator(p, 1, 0)
	g1 := NewGenerator(p, 1, 1<<40)
	var in isa.Inst
	max0 := uint64(0)
	for i := 0; i < 10000; i++ {
		g0.Next(&in)
		if in.Class.IsMem() && in.Addr > max0 {
			max0 = in.Addr
		}
	}
	min1 := ^uint64(0)
	for i := 0; i < 10000; i++ {
		g1.Next(&in)
		if in.Class.IsMem() && in.Addr < min1 {
			min1 = in.Addr
		}
	}
	if max0 >= min1 {
		t.Fatalf("address spaces overlap: max0=%#x min1=%#x", max0, min1)
	}
}

// measureMissRates runs a generator's memory stream through L1D/L2-sized
// caches to verify the working-set knobs produce the intended locality.
func measureMissRates(t *testing.T, name string, n int) (l1, l2 float64) {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	cfg := config.Default(1)
	l1d := cache.New(cfg.Mem.L1D)
	l2c := cache.New(cfg.Mem.L2)
	g := NewGenerator(p, 11, 0)
	var in isa.Inst
	accesses, l1m, l2m := 0, 0, 0
	for i := 0; i < n; i++ {
		g.Next(&in)
		if !in.Class.IsMem() {
			continue
		}
		accesses++
		if !l1d.Access(in.Addr) {
			l1d.Fill(in.Addr)
			l1m++
			if !l2c.Access(in.Addr) {
				l2c.Fill(in.Addr)
				l2m++
			}
		}
	}
	if accesses == 0 {
		t.Fatalf("%s produced no memory accesses", name)
	}
	return float64(l1m) / float64(accesses), float64(l2m) / float64(accesses)
}

func TestLocalityShapesPerClass(t *testing.T) {
	const n = 400000
	l1Gzip, l2Gzip := measureMissRates(t, "gzip", n)
	l1Mcf, l2Mcf := measureMissRates(t, "mcf", n)
	if l1Gzip > 0.08 {
		t.Errorf("gzip L1D miss rate %.3f too high for a cache-friendly benchmark", l1Gzip)
	}
	if l2Gzip > 0.02 {
		t.Errorf("gzip L2 miss rate %.3f too high", l2Gzip)
	}
	if l1Mcf < 0.08 {
		t.Errorf("mcf L1D miss rate %.3f too low for a memory-bound benchmark", l1Mcf)
	}
	if l2Mcf < 0.05 {
		t.Errorf("mcf global L2 miss rate %.3f too low", l2Mcf)
	}
	if l2Mcf < l2Gzip*3 {
		t.Errorf("mcf (%.3f) should miss L2 far more than gzip (%.3f)", l2Mcf, l2Gzip)
	}
}

func TestChaseLoadsDependOnRecentLoads(t *testing.T) {
	p, _ := ByName("mcf") // ChaseFrac 0.45
	g := NewGenerator(p, 5, 0)
	var in isa.Inst
	loadDest := map[isa.Reg]bool{}
	chained, loads := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&in)
		if in.Class != isa.ClassLoad {
			continue
		}
		loads++
		if loadDest[in.Src1] {
			chained++
		}
		loadDest[in.Dest] = true
	}
	frac := float64(chained) / float64(loads)
	if frac < 0.3 {
		t.Errorf("mcf chained-load fraction %.3f, want >= 0.3 (pointer chasing)", frac)
	}
}

func TestNewGeneratorRejectsInvalidProfile(t *testing.T) {
	p, _ := ByName("gzip")
	p.LoadFrac = 2.0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid profile")
		}
	}()
	NewGenerator(p, 1, 0)
}

func BenchmarkGeneratorNext(b *testing.B) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 1, 0)
	var in isa.Inst
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}
