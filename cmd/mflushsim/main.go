// Command mflushsim runs one simulation: a workload under an IFetch
// policy on the paper's machine, printing throughput, latency and energy
// statistics.
//
// Usage:
//
//	mflushsim -workload 2W3 -policy MFLUSH [-cycles N] [-warmup N] [-seed N] [-cores N] [-name S] [-v]
//	mflushsim -workload 8W3 -policy MFLUSH -interval 5000 [-out series.csv] [-json]
//	mflushsim -traces burst.scen,pair.scen -policy FLUSH-S30 [-name S]
//
// Policies: ICOUNT, FLUSH-S<delay>, FLUSH-NS, STALL-S<delay>, MFLUSH,
// MFLUSH-H<depth>.
//
// With -interval N the run additionally emits a time series: one sample
// every N measured cycles (CSV by default, JSONL with -json), streamed
// as the simulation advances. The series goes to -out when given (the
// normal summary still prints to stdout) and replaces the summary on
// stdout otherwise.
//
// With -traces the run replays trace files instead of synthesising a
// workload: every thread of every file (MFSCEN1 or JSONL scenarios from
// mflushtrace, or legacy MFTRACE1 files) becomes one hardware thread, in
// order, with the scenarios' per-instruction miss-latency overrides.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sampleCSVHeader names the columns writeSampleCSV emits. MCReg state is
// folded to its min/max across cores and banks (blank for non-MFLUSH
// policies); the full per-bank state is available with -json.
const sampleCSVHeader = "cycle,measured_cycles,ipc,interval_ipc,committed_total,flushes," +
	"flushed_instructions,wasted_energy_units,l2_hits,l2_misses,mcreg_min,mcreg_max"

// writeSampleCSV renders one time-series row.
func writeSampleCSV(w io.Writer, p sim.SamplePoint) {
	var total uint64
	for _, n := range p.Committed {
		total += n
	}
	mcregMin, mcregMax := "", ""
	if lo, hi, ok := p.MCRegBounds(); ok {
		mcregMin, mcregMax = fmt.Sprint(lo), fmt.Sprint(hi)
	}
	fmt.Fprintf(w, "%d,%d,%.6f,%.6f,%d,%d,%d,%.3f,%d,%d,%s,%s\n",
		p.Cycle, p.MeasuredCycles, p.IPC, p.IntervalIPC, total, p.Flushes,
		p.FlushedInsts, p.WastedEnergy, p.L2Hits, p.L2Misses, mcregMin, mcregMax)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "mflushsim: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the simulation and writes the report (or the
// time series) to stdout; flag errors and usage go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mflushsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "2W3", "workload name (xWy from the paper, or 8W-bzip2-twolf)")
	pol := fs.String("policy", "MFLUSH", "IFetch policy")
	cycles := fs.Uint64("cycles", 200000, "measured cycles")
	warmup := fs.Uint64("warmup", 300000, "warm-up cycles")
	seed := fs.Uint64("seed", 1, "synthesis seed")
	cores := fs.Int("cores", 0, "core count override (0: derive from workload)")
	verbose := fs.Bool("v", false, "print all event counters")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	traces := fs.String("traces", "", "comma-separated trace files (MFSCEN1, JSONL or legacy MFTRACE1) to replay instead of -workload; every thread of every file is appended")
	name := fs.String("name", "", "workload name to report (replayed traces otherwise report replay-N)")
	interval := fs.Uint64("interval", 0, "emit a time-series sample every N measured cycles (0: off)")
	out := fs.String("out", "", "time-series destination file (default: stdout, replacing the summary)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w workload.Workload
	var threadTraces [][]isa.Inst
	if *traces != "" {
		for _, path := range strings.Split(*traces, ",") {
			scen, err := trace.LoadScenario(strings.TrimSpace(path))
			if err != nil {
				return err
			}
			threadTraces = append(threadTraces, scen.Threads...)
		}
	} else {
		var ok bool
		w, ok = workload.ByName(*wl)
		if !ok {
			var names strings.Builder
			for _, x := range workload.All() {
				fmt.Fprintf(&names, "\n  %s", x.Describe())
			}
			return fmt.Errorf("unknown workload %q; valid names:%s", *wl, names.String())
		}
	}
	spec, err := sim.ParseSpec(*pol)
	if err != nil {
		return err
	}

	opt := sim.Options{
		Workload: w, Policy: spec, Name: *name,
		Cycles: *cycles, Warmup: *warmup, Seed: *seed, Cores: *cores,
		ThreadTraces: threadTraces,
		Interval:     *interval,
	}

	// Stream the time series as the simulation takes each sample.
	seriesToStdout := *interval > 0 && *out == ""
	if *interval > 0 {
		dst := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			dst = f
		}
		seriesW := bufio.NewWriter(dst)
		defer seriesW.Flush()
		if !*asJSON {
			fmt.Fprintln(seriesW, sampleCSVHeader)
		}
		enc := json.NewEncoder(seriesW)
		opt.OnSample = func(p sim.SamplePoint) {
			if *asJSON {
				_ = enc.Encode(p) // one JSON object per line (JSONL)
			} else {
				writeSampleCSV(seriesW, p)
			}
			seriesW.Flush()
		}
	}

	res, err := sim.Run(opt)
	if err != nil {
		return err
	}
	if seriesToStdout {
		return nil // the series replaced the summary
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Summary())
	}

	desc := w.Describe()
	if *traces != "" {
		desc = "replayed traces: " + *traces
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\t%s\n", desc)
	fmt.Fprintf(tw, "policy\t%s\n", res.Policy)
	fmt.Fprintf(tw, "cycles\t%d (after %d warm-up)\n", res.Cycles, *warmup)
	fmt.Fprintf(tw, "system IPC\t%.3f\n", res.IPC)
	for i, ipc := range res.PerCore {
		fmt.Fprintf(tw, "core %d IPC\t%.3f\n", i, ipc)
	}
	for i, n := range res.Committed {
		fmt.Fprintf(tw, "thread %d committed\t%d\n", i, n)
	}
	fmt.Fprintf(tw, "flushes\t%d\n", res.Flushes)
	fmt.Fprintf(tw, "flushed instructions\t%d\n", res.Energy.FlushedTotal())
	fmt.Fprintf(tw, "wasted energy\t%.1f units (%.4f per commit)\n",
		res.WastedEnergy(), res.Energy.WastedPerCommit())
	h := res.HitLatency
	fmt.Fprintf(tw, "L2 hit time\tmean %.1f, p50 %d, p90 %d, max %d (n=%d)\n",
		h.Mean(), h.Percentile(0.5), h.Percentile(0.9), h.Max(), h.Count())
	if err := tw.Flush(); err != nil {
		return err
	}

	if *verbose {
		fmt.Fprintln(stdout, "\ncounters:")
		tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, c := range res.Counters.All() {
			fmt.Fprintf(tw, "  %s\t%d\n", c.Name, c.Value)
		}
		return tw.Flush()
	}
	return nil
}
