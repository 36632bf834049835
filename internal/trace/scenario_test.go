package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

// testScenario builds a scenario exercising every field: multiple
// threads, overrides, markers (including one at end-of-thread), absent
// registers, control flow.
func testScenario() *Scenario {
	return &Scenario{
		Threads: [][]isa.Inst{
			{
				{PC: 0x1000, Class: isa.ClassLoad, Dest: 3, Src1: isa.InvalidReg, Src2: isa.InvalidReg, Addr: 0xdead00, MissLatency: 900},
				{PC: 0x1004, Class: isa.ClassInt, Dest: 4, Src1: 3, Src2: isa.InvalidReg},
				{PC: 0x1008, Class: isa.ClassBranch, Dest: isa.InvalidReg, Src1: 4, Src2: isa.InvalidReg, Taken: true, Target: 0x1000},
			},
			{
				{PC: 0x2000, Class: isa.ClassStore, Dest: isa.InvalidReg, Src1: 7, Src2: isa.InvalidReg, Addr: 0xbeef00},
				{PC: 0x2004, Class: isa.ClassFPDiv, Dest: 9, Src1: 9, Src2: 9, MissLatency: 0},
			},
		},
		Phases: []PhaseMark{
			{Thread: 0, Index: 0, Label: "warm"},
			{Thread: 0, Index: 2, Label: "hot"},
			{Thread: 1, Index: 2, Label: "end"},
		},
	}
}

func TestScenarioBinaryRoundTrip(t *testing.T) {
	want := testScenario()
	var buf bytes.Buffer
	if err := WriteScenarioBinary(&buf, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadScenario(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestScenarioJSONLRoundTrip(t *testing.T) {
	want := testScenario()
	var buf bytes.Buffer
	if err := WriteScenarioJSONL(&buf, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadScenario(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v\njsonl:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("jsonl round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestScenarioErrorsCarryOffsets pins the byte-offset error discipline:
// truncations and corruptions name where in the input they were found.
func TestScenarioErrorsCarryOffsets(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteScenarioBinary(&buf, testScenario()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("truncated final record", func(t *testing.T) {
		_, err := ReadScenario(bytes.NewReader(full[:len(full)-3]))
		if err == nil {
			t.Fatal("truncated scenario parsed")
		}
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("error %v does not wrap ErrBadTrace", err)
		}
		off, ok := Offset(err)
		if !ok {
			t.Fatalf("error %v carries no byte offset", err)
		}
		if off <= 0 || off >= int64(len(full)) {
			t.Fatalf("offset %d outside the input (len %d)", off, len(full))
		}
	})

	t.Run("unknown tag", func(t *testing.T) {
		bad := append([]byte{}, full...)
		bad = append(bad, 0xEE)
		_, err := ReadScenario(bytes.NewReader(bad))
		off, ok := Offset(err)
		if !ok || off != int64(len(full)) {
			t.Fatalf("unknown-tag error %v: offset %d, want %d", err, off, len(full))
		}
	})

	t.Run("jsonl corrupt line", func(t *testing.T) {
		in := `{"t":0,"pc":1,"class":"int"}` + "\n" + `{"t":0,"pc":` + "\n"
		_, err := ReadScenario(strings.NewReader(in))
		if err == nil {
			t.Fatal("corrupt jsonl parsed")
		}
		off, ok := Offset(err)
		if !ok {
			t.Fatalf("jsonl error %v carries no byte offset", err)
		}
		if want := int64(len(`{"t":0,"pc":1,"class":"int"}`) + 1); off != want {
			t.Fatalf("jsonl error offset %d, want %d (start of bad line)", off, want)
		}
	})

	t.Run("jsonl unknown field", func(t *testing.T) {
		_, err := ReadScenario(strings.NewReader(`{"t":0,"pc":1,"class":"int","bogus":3}` + "\n"))
		if err == nil {
			t.Fatal("unknown field accepted")
		}
	})

	t.Run("jsonl unknown class", func(t *testing.T) {
		_, err := ReadScenario(strings.NewReader(`{"t":0,"pc":1,"class":"vector"}` + "\n"))
		if err == nil || !strings.Contains(err.Error(), "vector") {
			t.Fatalf("unknown class error = %v", err)
		}
	})
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
	}{
		{"no threads", Scenario{}},
		{"empty thread", Scenario{Threads: [][]isa.Inst{{{Class: isa.ClassInt}}, nil}}},
		{"phase bad thread", Scenario{
			Threads: [][]isa.Inst{{{Class: isa.ClassInt}}},
			Phases:  []PhaseMark{{Thread: 2, Label: "x"}},
		}},
		{"phase bad index", Scenario{
			Threads: [][]isa.Inst{{{Class: isa.ClassInt}}},
			Phases:  []PhaseMark{{Thread: 0, Index: 5, Label: "x"}},
		}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	if err := testScenario().Validate(); err != nil {
		t.Errorf("good scenario rejected: %v", err)
	}
}

func TestSumFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace")
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := SumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
	if got != want {
		t.Fatalf("SumFile = %s, want %s", got, want)
	}
}

// FuzzScenarioBinary feeds hostile bytes to the binary reader: it must
// never panic, and every successful parse must re-encode and re-read to
// the same scenario (a full round-trip fixpoint).
func FuzzScenarioBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteScenarioBinary(&seed, testScenario()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(scenMagic))
	f.Add([]byte(scenMagic + "\x01\x00"))
	f.Add([]byte(scenMagic + "\x02\x00\xff\xff"))
	f.Add([]byte(fileMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadScenario(bytes.NewReader(data))
		if err != nil {
			if _, ok := Offset(err); !ok && errors.Is(err, ErrBadTrace) && len(data) > len(scenMagic) &&
				string(data[:len(scenMagic)]) == scenMagic {
				// Binary-path errors past the header should locate
				// themselves; Validate failures at EOF are the exception.
				if !strings.Contains(err.Error(), "thread") && !strings.Contains(err.Error(), "scenario has no") {
					t.Fatalf("binary error without offset: %v", err)
				}
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteScenarioBinary(&buf, s); err != nil {
			t.Fatalf("re-encode of accepted scenario failed: %v", err)
		}
		s2, err := ReadScenario(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-encoded scenario failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip not a fixpoint:\n in %+v\nout %+v", s, s2)
		}
	})
}

// FuzzScenarioJSONL is the JSONL twin of FuzzScenarioBinary.
func FuzzScenarioJSONL(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteScenarioJSONL(&seed, testScenario()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"t":0,"pc":1,"class":"load","addr":7,"miss_lat":1000}`)
	f.Add(`{"t":0,"phase":"x"}`)
	f.Add("not json at all")
	f.Fuzz(func(t *testing.T, data string) {
		s, err := ReadScenario(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteScenarioJSONL(&buf, s); err != nil {
			t.Fatalf("re-encode of accepted scenario failed: %v", err)
		}
		s2, err := ReadScenario(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-encoded scenario failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip not a fixpoint:\n in %+v\nout %+v", s, s2)
		}
	})
}
