package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestOutputGolden pins mflushbench's complete output — every figure,
// then the ablations — at a reduced scale against testdata/golden.txt.
// Figures and ablations are computed in internal/experiments and
// rendered here, so any change to either that moves a printed number or
// a byte of layout fails this test.
func TestOutputGolden(t *testing.T) {
	scale := []string{"-warmup", "5000", "-cycles", "5000"}
	var got bytes.Buffer
	if err := run(scale, &got); err != nil {
		t.Fatal(err)
	}
	if err := run(append(scale, "-ablations"), &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from golden at line %d:\ngot:  %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
	}
}

// TestRunRejectsUnknownFigure: a bad figure or a budget the campaign
// engine rejects fails before anything prints.
func TestRunRejectsUnknownFigure(t *testing.T) {
	var out bytes.Buffer
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "12"}, "no figure"},
		{[]string{"-fig", "-1"}, "no figure"},
		{[]string{"-ablations", "-cycles", "0"}, "positive cycle budget"},
		{[]string{"-fig", "2", "-cycles", "1073741825"}, "exceeds the bound"},
		{[]string{"-fig", "2", "-warmup", "1073741825"}, "exceeds the bound"},
	} {
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one containing %q", c.args, err, c.want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected run wrote output: %q", out.String())
	}
}

// TestUndefinedPrintsNA: a window too short to measure an L2 hit or a
// committed instruction leaves shares and speedups undefined; they
// print as n/a, never NaN, and an empty histogram's max prints no -1.
func TestUndefinedPrintsNA(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "4", "-warmup", "0", "-cycles", "30"},
		{"-fig", "2", "-warmup", "0", "-cycles", "1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got := out.String()
		if strings.Contains(got, "NaN") || strings.Contains(got, " -1 ") || !strings.Contains(got, "n/a") {
			t.Errorf("%v printed:\n%s", args, got)
		}
	}
}

// TestParseScale: -quick only lowers the defaults, so -warmup, -cycles
// and -seed given explicitly still win; a zero measured window or a
// budget above 2^30 cycles is rejected.
func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		args []string
		want experiments.Config
	}{
		{nil, experiments.Default},
		{[]string{"-quick"}, experiments.Quick},
		{[]string{"-quick", "-seed", "3"}, experiments.Config{Warmup: 60000, Cycles: 60000, Seed: 3}},
		{[]string{"-quick", "-cycles", "5000"}, experiments.Config{Warmup: 60000, Cycles: 5000, Seed: 1}},
		{[]string{"-warmup", "0", "-cycles", "1073741824"}, experiments.Config{Warmup: 0, Cycles: 1 << 30, Seed: 1}},
	} {
		cfg, err := parseScale(flag.NewFlagSet("mflushbench", flag.ContinueOnError), c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if cfg != c.want {
			t.Errorf("%v: config %+v, want %+v", c.args, cfg, c.want)
		}
	}
	for _, args := range [][]string{
		{"-cycles", "0"},
		{"-quick", "-cycles", "0"},
		{"-cycles", "1073741825"},
		{"-warmup", "1073741825"},
	} {
		if _, err := parseScale(flag.NewFlagSet("mflushbench", flag.ContinueOnError), args); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
