package tracecli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/synth"
	"repro/internal/trace"
)

// Main runs the synthesizer CLI and returns its exit code; prog names
// the command in flag usage and error messages.
func Main(prog string, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "bench", "synthesis mode: bench, ramp, sweep, burst, phase, mix")
	bench := fs.String("bench", "", "benchmark name(s), comma-separated for phase/mix (see -list)")
	n := fs.Int("n", 1_000_000, "instructions per thread")
	out := fs.String("o", "", "output file (bench mode default: <bench>.trace)")
	seed := fs.Uint64("seed", 1, "synthesis seed")
	threads := fs.Int("threads", 1, "threads for single-bench modes (mix: one per bench)")
	format := fs.String("format", "binary", "output encoding: binary (MFSCEN1) or jsonl")
	latLo := fs.Uint64("lat-lo", 400, "miss-latency override floor, cycles")
	latHi := fs.Uint64("lat-hi", 2000, "miss-latency override ceiling, cycles")
	tailFrac := fs.Float64("tail-frac", 0.05, "fraction of loads receiving an override")
	alpha := fs.Float64("alpha", 1.5, "Pareto tail shape for burst mode")
	segments := fs.Int("segments", 4, "latency levels (sweep) / burst episodes (burst) / alternations (phase)")
	list := fs.Bool("list", false, "list available benchmarks")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, "letter  name      class")
		for _, p := range synth.Profiles() {
			class := "compute-bound"
			if p.MemBound() {
				class = "memory-bound"
			}
			fmt.Fprintf(stdout, "%c       %-9s %s\n", p.Letter, p.Name, class)
		}
		return 0
	}

	cfg := Config{
		Mode: *mode, N: *n, Threads: *threads, Seed: *seed,
		LatLo: uint32(*latLo), LatHi: uint32(*latHi),
		TailFrac: *tailFrac, Alpha: *alpha, Segments: *segments,
	}
	if *bench != "" {
		cfg.Benches = splitBenches(*bench)
	}
	if *latLo > 1<<31 || *latHi > 1<<31 {
		fmt.Fprintf(stderr, "%s: latency overrides above 2^31 cycles are not meaningful\n", prog)
		return 2
	}

	scen, err := Synthesize(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 2
	}

	path := *out
	if path == "" {
		if cfg.Mode != "bench" || len(cfg.Benches) != 1 {
			fmt.Fprintf(stderr, "%s: -o is required\n", prog)
			return 2
		}
		path = cfg.Benches[0] + ".trace"
	}
	if err := WriteFile(path, scen, *format); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}
	total := 0
	for _, t := range scen.Threads {
		total += len(t)
	}
	fmt.Fprintf(stdout, "wrote %d instructions (%d threads, %d phase marks) to %s\n",
		total, len(scen.Threads), len(scen.Phases), path)
	return 0
}

func splitBenches(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// WriteFile writes the scenario to path in the given encoding —
// atomically: output lands in a temp file in the destination directory
// and is renamed into place only after a clean close, so a mid-write
// failure leaves no truncated file behind.
func WriteFile(path string, s *trace.Scenario, format string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tracecli-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	switch format {
	case "binary":
		if err := trace.WriteScenarioBinary(tmp, s); err != nil {
			return cleanup(err)
		}
	case "jsonl":
		if err := trace.WriteScenarioJSONL(tmp, s); err != nil {
			return cleanup(err)
		}
	default:
		return cleanup(fmt.Errorf("tracecli: unknown format %q (binary, jsonl)", format))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp opens 0600; published traces should read like any
	// os.Create output.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
