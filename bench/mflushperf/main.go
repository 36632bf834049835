// Command mflushperf is the MFLUSH reproduction's end-to-end benchmark.
// One invocation runs one workload in its own process: it sets the
// workload up (several times, reporting the median), runs closed-loop
// operations for a fixed wall time, checks every output, and prints the
// end-to-end metrics — or, with -trace 1, repeats the workload with
// spans recorded around every call into the sim, campaign, cluster and
// server layers and prints the per-layer metrics instead. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	mflushperf -workload solo-mem [-seed 1] [-seconds 25] [-trace 0|1] [-spans FILE] [-record FILE]
//	mflushperf -compare A.jsonl B.jsonl [-benchmark BENCHMARK.json]
//
// run.sh builds mflushperf from the checkout and runs it; README.md
// describes the workloads, the metrics and how to compare two sets of
// runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run parses the command line and returns the process exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("mflushperf", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every simulation seed of the run is derived from")
	seconds := fs.Float64("seconds", 25, "wall time of the measured phase")
	trace := fs.Int("trace", 0, "1: repeat the workload traced and print the per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default: under -workdir)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "mflushperf"), "directory for stores, logs and spans")
	record := fs.String("record", "", "append this run's result, with its workload and seed, to this JSONL file")
	compare := fs.Bool("compare", false, "compare two JSONL files of recorded runs (positional arguments)")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the regression bounds (-compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mflushperf: -compare needs two recorded-run files")
			return 2
		}
		if err := compareFiles(os.Stdout, *benchmark, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "mflushperf:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "mflushperf: unknown workload %q (%s)\n", *wl, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "mflushperf: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "mflushperf: -seconds must be positive")
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mflushperf:", err)
		return 1
	}
	cfg := runConfig{
		Workload:  w,
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *trace == 1,
		SpansPath: *spans,
		WorkDir:   *workdir,
		MinOps:    minLatencySamples,
		SetupReps: setupReps,
		Pins:      pins,
		Shrink:    1,
		Out:       os.Stdout,
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mflushperf:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "mflushperf:", err)
			return 1
		}
	}
	return exitCode(res)
}

// exitCode fails a run whose outputs were wrong or that had any failure.
func exitCode(res result) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}
