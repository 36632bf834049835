package tracecli

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestSynthesizeDeterministic freezes the synthesizer's contract: the
// same recipe always yields a deep-equal scenario and a byte-identical
// file, across every mode. CI enforces the same property end-to-end by
// running cmd/mflushtrace twice and cmp-ing.
func TestSynthesizeDeterministic(t *testing.T) {
	recipes := map[string]Config{
		"bench": {Mode: "bench", Benches: []string{"mcf"}, N: 5000, Threads: 2, Seed: 3},
		"ramp":  {Mode: "ramp", Benches: []string{"art"}, N: 5000, Seed: 3},
		"sweep": {Mode: "sweep", Benches: []string{"gzip"}, N: 5000, Segments: 3, Seed: 3},
		"burst": {Mode: "burst", Benches: []string{"mcf"}, N: 5000, Alpha: 1.2, Seed: 3},
		"phase": {Mode: "phase", Benches: []string{"gzip", "art"}, N: 5000, Segments: 5, Seed: 3},
		"mix":   {Mode: "mix", Benches: []string{"mcf", "gzip"}, N: 5000, Seed: 3},
	}
	dir := t.TempDir()
	for name, cfg := range recipes {
		a, err := Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two syntheses of one recipe differ", name)
		}
		for _, format := range []string{"binary", "jsonl"} {
			p1 := filepath.Join(dir, name+"-1."+format)
			p2 := filepath.Join(dir, name+"-2."+format)
			if err := WriteFile(p1, a, format); err != nil {
				t.Fatalf("%s/%s: %v", name, format, err)
			}
			if err := WriteFile(p2, b, format); err != nil {
				t.Fatalf("%s/%s: %v", name, format, err)
			}
			r1, _ := os.ReadFile(p1)
			r2, _ := os.ReadFile(p2)
			if !bytes.Equal(r1, r2) {
				t.Errorf("%s/%s: files not byte-identical", name, format)
			}
		}
	}
}

// TestLatencyModesInjectOverrides sanity-checks each override schedule:
// the latency modes actually stamp overrides within [LatLo, LatHi] onto
// loads only, and mark their phases.
func TestLatencyModesInjectOverrides(t *testing.T) {
	for _, mode := range []string{"ramp", "sweep", "burst"} {
		cfg := Config{Mode: mode, Benches: []string{"mcf"}, N: 20000,
			Seed: 9, LatLo: 500, LatHi: 3000, TailFrac: 0.2}
		s, err := Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		overrides := 0
		for _, in := range s.Threads[0] {
			if in.MissLatency == 0 {
				continue
			}
			overrides++
			if in.Class != isa.ClassLoad {
				t.Fatalf("%s: override on a %v instruction", mode, in.Class)
			}
			if in.MissLatency < 500 || in.MissLatency > 3000 {
				t.Fatalf("%s: override %d outside [500,3000]", mode, in.MissLatency)
			}
		}
		if overrides == 0 {
			t.Errorf("%s: no overrides injected", mode)
		}
		if len(s.Phases) == 0 {
			t.Errorf("%s: no phase marks", mode)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: invalid scenario: %v", mode, err)
		}
	}
}

// TestMixStreamsMatchLiveSynthesis pins the replay-identity contract:
// mix mode records, for thread slot g, exactly the stream a live run
// with the same seed would synthesise for profile g in slot g. A trace
// produced this way replays bit-identically to on-the-fly synthesis.
func TestMixStreamsMatchLiveSynthesis(t *testing.T) {
	const seed, n = 11, 10000
	benches := []string{"mcf", "gzip", "art"}
	s, err := Synthesize(Config{Mode: "mix", Benches: benches, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for g, bench := range benches {
		prof, _ := synth.ByName(bench)
		streamSeed, base := sim.ReplayStream(seed, g)
		gen := synth.NewGenerator(prof, streamSeed, base)
		var want isa.Inst
		for i := range s.Threads[g] {
			gen.Next(&want)
			if s.Threads[g][i] != want {
				t.Fatalf("thread %d diverges from live synthesis at inst %d:\n got %+v\nwant %+v",
					g, i, s.Threads[g][i], want)
			}
		}
	}
}

// TestLegacyFixtureLoads pins MFTRACE1 as a supported input format.
// testdata/mcf64.mftrace was written by the retired legacy writer
// (mflushtrace -bench mcf -n 64 -format mftrace -base 17179869184), so it
// is the raw (seed 1, base 1<<34) mcf generator stream; it must still load
// as a single thread 0 with no overrides and no phase marks.
func TestLegacyFixtureLoads(t *testing.T) {
	s, err := trace.LoadScenario(filepath.Join("testdata", "mcf64.mftrace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Threads) != 1 || len(s.Phases) != 0 {
		t.Fatalf("legacy fixture loaded as %d threads, %d phase marks; want 1 thread, none", len(s.Threads), len(s.Phases))
	}
	prof, _ := synth.ByName("mcf")
	want := record(synth.NewGenerator(prof, 1, 1<<34), 64)
	if !reflect.DeepEqual(s.Threads[0], want) {
		t.Fatal("legacy fixture does not load as the historical (seed, base) mcf stream")
	}
}

func TestSynthesizeRejects(t *testing.T) {
	cases := map[string]Config{
		"unknown mode":      {Mode: "warp", Benches: []string{"mcf"}},
		"unknown bench":     {Benches: []string{"nope"}},
		"no bench":          {},
		"lat inverted":      {Benches: []string{"mcf"}, LatLo: 900, LatHi: 500},
		"tail-frac > 1":     {Benches: []string{"mcf"}, TailFrac: 1.5},
		"phase needs two":   {Mode: "phase", Benches: []string{"mcf"}},
		"mix thread count":  {Mode: "mix", Benches: []string{"mcf", "gzip"}, Threads: 3},
		"too many threads":  {Benches: []string{"mcf"}, Threads: 65},
		"negative segments": {Benches: []string{"mcf"}, Mode: "sweep", Segments: -1},
	}
	for name, cfg := range cases {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWriteFileRoundTrips: what WriteFile persists, trace.LoadScenario
// reads back identically, in both scenario encodings.
func TestWriteFileRoundTrips(t *testing.T) {
	s, err := Synthesize(Config{Mode: "sweep", Benches: []string{"art"}, N: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"binary", "jsonl"} {
		path := filepath.Join(t.TempDir(), "x."+format)
		if err := WriteFile(path, s, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got, err := trace.LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s round trip diverged", format)
		}
	}
}

// TestWriteFileAtomic is the regression for the partial-file-on-error
// bug: a failed write must leave neither a
// truncated output file nor a stray temp file, and must not clobber
// whatever already lives at the destination.
func TestWriteFileAtomic(t *testing.T) {
	s, err := Synthesize(Config{Mode: "bench", Benches: []string{"mcf"}, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad format leaves no residue", func(t *testing.T) {
		dir := t.TempDir()
		if err := WriteFile(filepath.Join(dir, "out.trace"), s, "tar"); err == nil {
			t.Fatal("unknown format accepted")
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 0 {
			t.Fatalf("failed write left files behind: %v", ents)
		}
	})

	t.Run("failed rename preserves destination", func(t *testing.T) {
		dir := t.TempDir()
		// A directory at the destination makes the final rename fail
		// after a fully successful write — the step where the old code
		// would already have truncated the target.
		dst := filepath.Join(dir, "out.trace")
		if err := os.Mkdir(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(dst, s, "binary"); err == nil {
			t.Fatal("rename onto a directory succeeded")
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 1 || !ents[0].IsDir() {
			t.Fatalf("failed rename disturbed the directory: %v", ents)
		}
	})

	t.Run("success replaces atomically with open perms", func(t *testing.T) {
		dir := t.TempDir()
		dst := filepath.Join(dir, "out.trace")
		if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(dst, s, "binary"); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(dst)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o644 {
			t.Errorf("perms = %v, want 0644", got)
		}
		if _, err := trace.LoadScenario(dst); err != nil {
			t.Errorf("replaced file unreadable: %v", err)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 1 {
			t.Errorf("temp residue after success: %v", ents)
		}
	})
}

// TestMain covers the CLI shell: -list, scenario writes and flag
// validation.
func TestMain(t *testing.T) {
	run := func(prog string, argv ...string) (int, string, string) {
		var out, errb strings.Builder
		code := Main(prog, argv, &out, &errb)
		return code, out.String(), errb.String()
	}

	t.Run("list", func(t *testing.T) {
		code, out, _ := run("mflushtrace", "-list")
		if code != 0 || !strings.Contains(out, "mcf") || !strings.Contains(out, "memory-bound") {
			t.Fatalf("code %d, out %q", code, out)
		}
	})

	t.Run("scenario write", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "m.trace")
		code, out, errs := run("mflushtrace", "-mode", "mix", "-bench", "mcf,gzip", "-n", "1000", "-o", path)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errs)
		}
		if !strings.Contains(out, "2 threads") {
			t.Fatalf("summary line %q", out)
		}
		s, err := trace.LoadScenario(path)
		if err != nil || len(s.Threads) != 2 {
			t.Fatalf("output unreadable: %v", err)
		}
	})

	t.Run("scenario modes need -o", func(t *testing.T) {
		if code, _, _ := run("mflushtrace", "-mode", "mix", "-bench", "mcf,gzip", "-n", "100"); code == 0 {
			t.Fatal("mix mode without -o succeeded")
		}
	})

	t.Run("bad flags fail", func(t *testing.T) {
		if code, _, _ := run("mflushtrace", "-mode", "warp", "-bench", "mcf", "-o", "x"); code == 0 {
			t.Fatal("unknown mode accepted")
		}
		if code, _, _ := run("mflushtrace", "-bench", "mcf", "-lat-lo", "4294967295", "-o", "x"); code == 0 {
			t.Fatal("absurd latency accepted")
		}
	})
}
