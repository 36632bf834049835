package trace

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/isa"
)

func TestSliceSourceLoops(t *testing.T) {
	insts := []isa.Inst{
		{PC: 0x100, Class: isa.ClassInt},
		{PC: 0x104, Class: isa.ClassLoad, Addr: 0x2000},
	}
	s := NewSliceSource(insts)
	var out isa.Inst
	for round := 0; round < 3; round++ {
		for i := range insts {
			s.Next(&out)
			if out.PC != insts[i].PC {
				t.Fatalf("round %d pos %d: pc %#x, want %#x", round, i, out.PC, insts[i].PC)
			}
		}
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSliceSourceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSliceSource(nil)
}

// TestReadScenarioRejectsLegacyGarbage: empty input, an unknown magic,
// a truncated MFTRACE1 record and an out-of-range class all fail with
// ErrBadTrace instead of loading.
func TestReadScenarioRejectsLegacyGarbage(t *testing.T) {
	badClass := make([]byte, len(fileMagic)+recordBytes)
	copy(badClass, fileMagic)
	badClass[len(fileMagic)+8] = 200 // class byte of the first record
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTTRACE plus some data"),
		"truncated": append([]byte(fileMagic), 1, 2, 3),
		"bad class": badClass,
	}
	for name, data := range cases {
		if _, err := ReadScenario(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: error = %v, want ErrBadTrace", name, err)
		}
	}
}

// TestBBDictDeterministic: the instruction synthesised at a pc depends on
// the pc alone, not on what the output held before.
func TestBBDictDeterministic(t *testing.T) {
	d := NewBBDict(0x10000, 1<<16)
	for pc := uint64(0x4000); pc < 0x4000+64*4; pc += 4 {
		var a isa.Inst
		b := isa.Inst{PC: 1, Class: isa.ClassStore, Dest: 2, Src1: 3, Src2: 4, Addr: 5, Taken: true, MissLatency: 6, Target: 7}
		d.InstAt(pc, &a)
		d.InstAt(pc, &b)
		if a != b {
			t.Fatalf("pc %#x: dictionary nondeterministic: %+v vs %+v", pc, a, b)
		}
	}
}

func TestBBDictAddressesInRange(t *testing.T) {
	base, span := uint64(0x100000), uint64(1<<20)
	d := NewBBDict(base, span)
	var in isa.Inst
	memSeen := 0
	for pc := uint64(0); pc < 4*4096; pc += 4 {
		d.InstAt(pc, &in)
		if in.PC != pc {
			t.Fatalf("pc not preserved: %#x", in.PC)
		}
		if in.Class.IsMem() {
			memSeen++
			if in.Addr < base || in.Addr >= base+span {
				t.Fatalf("wrong-path address %#x outside [%#x,%#x)", in.Addr, base, base+span)
			}
		}
		if in.Taken {
			t.Fatal("wrong-path instructions must not be taken branches")
		}
	}
	if memSeen == 0 {
		t.Fatal("wrong-path stream contains no memory operations")
	}
}

func TestBBDictMix(t *testing.T) {
	d := NewBBDict(0, 0) // default span
	counts := map[isa.Class]int{}
	var in isa.Inst
	const n = 16384
	for pc := uint64(0); pc < n*4; pc += 4 {
		d.InstAt(pc, &in)
		counts[in.Class]++
	}
	loadFrac := float64(counts[isa.ClassLoad]) / n
	if loadFrac < 0.10 || loadFrac > 0.30 {
		t.Fatalf("wrong-path load fraction %.3f out of plausible range", loadFrac)
	}
	if counts[isa.ClassInt] == 0 || counts[isa.ClassBranch] == 0 {
		t.Fatal("wrong-path stream lacks ALU or branch instructions")
	}
}
