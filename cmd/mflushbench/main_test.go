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

func TestRunRejectsUnknownFigure(t *testing.T) {
	var out bytes.Buffer
	for _, fig := range []string{"12", "-1"} {
		if err := run([]string{"-fig", fig}, &out); err == nil || !strings.Contains(err.Error(), "no figure") {
			t.Errorf("-fig %s: err = %v", fig, err)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected figure wrote output: %q", out.String())
	}
}

// TestParseScale: -quick only lowers the defaults, so -warmup, -cycles
// and -seed given explicitly still win.
func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		args []string
		want experiments.Config
	}{
		{nil, experiments.Default},
		{[]string{"-quick"}, experiments.Quick},
		{[]string{"-quick", "-seed", "3"}, experiments.Config{Warmup: 60000, Cycles: 60000, Seed: 3}},
		{[]string{"-quick", "-cycles", "5000"}, experiments.Config{Warmup: 60000, Cycles: 5000, Seed: 1}},
	} {
		cfg, err := parseScale(flag.NewFlagSet("mflushbench", flag.ContinueOnError), c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if cfg != c.want {
			t.Errorf("%v: config %+v, want %+v", c.args, cfg, c.want)
		}
	}
}
