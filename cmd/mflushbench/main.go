// Command mflushbench regenerates the paper's tables and figures as text
// tables.
//
// Usage:
//
//	mflushbench [-fig N] [-ablations] [-warmup N] [-cycles N] [-seed N] [-quick]
//
// Without -fig it runs the complete evaluation (Figures 1-11) in order.
// Absolute numbers will not match the paper (the substrate is a from-
// scratch simulator fed synthetic workloads — see internal/synth); the
// shapes are the reproduction target.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/synth"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "mflushbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected figures (or the ablations) to
// out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mflushbench", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (1-11); 0 runs all")
	ablate := fs.Bool("ablations", false, "run the design-choice ablations instead of the figures")
	cfg, err := parseScale(fs, args)
	if err != nil {
		return err
	}
	if *ablate {
		if err := ablations(out, cfg); err != nil {
			return fmt.Errorf("ablations: %w", err)
		}
		return nil
	}

	figs := []func(io.Writer, experiments.Config) error{
		figure1, figure2, figure3, figure4, figure5, figure6,
		figure7, figure8, figure9, figure10, figure11,
	}
	runFig := func(n int) error {
		if err := figs[n-1](out, cfg); err != nil {
			return fmt.Errorf("figure %d: %w", n, err)
		}
		return nil
	}
	if *fig != 0 {
		if *fig < 1 || *fig > len(figs) {
			return fmt.Errorf("no figure %d (valid: 1-11)", *fig)
		}
		return runFig(*fig)
	}
	for n := 1; n <= len(figs); n++ {
		if err := runFig(n); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// parseScale adds the scale flags to fs, parses args and returns the
// Config they select: experiments.Quick under -quick, else Default, with
// any -warmup, -cycles or -seed given explicitly taking precedence. A
// budget the campaign engine would reject fails here, before anything
// prints.
func parseScale(fs *flag.FlagSet, args []string) (experiments.Config, error) {
	warmup := fs.Uint64("warmup", experiments.Default.Warmup, "warm-up cycles (excluded from measurement)")
	cycles := fs.Uint64("cycles", experiments.Default.Cycles, "measured cycles per simulation")
	seed := fs.Uint64("seed", experiments.Default.Seed, "workload synthesis seed")
	quick := fs.Bool("quick", false, "default to the reduced quick configuration")
	if err := fs.Parse(args); err != nil {
		return experiments.Config{}, err
	}
	cfg := experiments.Default
	if *quick {
		cfg = experiments.Quick
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warmup":
			cfg.Warmup = *warmup
		case "cycles":
			cfg.Cycles = *cycles
		case "seed":
			cfg.Seed = *seed
		}
	})
	// The engine owns the budget bounds: expanding a one-job spec at
	// this scale checks them.
	probe := campaign.Spec{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"}, Cycles: cfg.Cycles, Warmup: cfg.Warmup}
	if _, err := probe.Jobs(); err != nil {
		return experiments.Config{}, fmt.Errorf("bad scale: %w", err)
	}
	return cfg, nil
}

// pct renders the fraction f as a percentage in format, or n/a when f
// is undefined: a share or speedup over zero.
func pct(format string, f float64) string {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return "n/a"
	}
	return fmt.Sprintf(format, f*100)
}

func header(out io.Writer, title string) {
	fmt.Fprintln(out, title)
	fmt.Fprintln(out, strings.Repeat("-", len(title)))
}

func tabbed(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

func figure1(out io.Writer, _ experiments.Config) error {
	header(out, "Figure 1: simulation parameters and workloads")
	c := config.Default(4)
	w := tabbed(out)
	fmt.Fprintf(w, "Pipeline depth\t11 stages (front end %d)\n", c.Core.FrontEndStages)
	fmt.Fprintf(w, "Queues\t%d int, %d fp, %d ld/st\n", c.Core.IntQueue, c.Core.FPQueue, c.Core.LSQueue)
	fmt.Fprintf(w, "Execution units\t%d int, %d fp, %d ld/st\n", c.Core.IntUnits, c.Core.FPUnits, c.Core.LSUnits)
	fmt.Fprintf(w, "Physical registers\t%d (reserve %d/thread)\n", c.Core.PhysRegs, c.Core.RegReservePerThread)
	fmt.Fprintf(w, "ROB\t%d entries per thread\n", c.Core.ROBPerThread)
	fmt.Fprintf(w, "Branch predictor\tperceptron (%d perceptrons, %d-bit history)\n",
		c.Core.PerceptronCount, c.Core.PerceptronHistory)
	fmt.Fprintf(w, "BTB\t%d entries, %d-way\n", c.Core.BTBEntries, c.Core.BTBAssoc)
	fmt.Fprintf(w, "RAS\t%d entries per thread\n", c.Core.RASEntries)
	fmt.Fprintf(w, "L1 icache\t%dKB, %d-way, %d banks\n", c.Mem.L1I.SizeBytes>>10, c.Mem.L1I.Assoc, c.Mem.L1I.Banks)
	fmt.Fprintf(w, "L1 dcache\t%dKB, %d-way, %d banks\n", c.Mem.L1D.SizeBytes>>10, c.Mem.L1D.Assoc, c.Mem.L1D.Banks)
	fmt.Fprintf(w, "L1 lat./miss\t%d/%d cycles\n", c.L1Latency, c.Mem.L1MissLatency)
	fmt.Fprintf(w, "TLB\t%d entries, %d-cycle miss\n", c.Mem.TLBEntries, c.Mem.TLBMissLatency)
	fmt.Fprintf(w, "L2 cache\t%.1fMB, %d-way, %d banks, %d-cycle banks\n",
		float64(c.Mem.L2.SizeBytes)/(1<<20), c.Mem.L2.Assoc, c.Mem.L2.Banks, c.Mem.L2.Latency)
	fmt.Fprintf(w, "Main memory\t%d cycles\n", c.Mem.MainMemoryLatency)
	w.Flush()

	fmt.Fprintln(out, "\nBenchmark letter map:")
	w = tabbed(out)
	ps := synth.Profiles()
	for i := 0; i < len(ps); i += 4 {
		var cells []string
		for j := i; j < i+4 && j < len(ps); j++ {
			cells = append(cells, fmt.Sprintf("%s %c", ps[j].Name, ps[j].Letter))
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush()

	fmt.Fprintln(out, "\nWorkloads (xWy):")
	w = tabbed(out)
	for _, size := range workload.Sizes() {
		for _, wl := range workload.OfSize(size) {
			fmt.Fprintf(w, "%s\t%s\n", wl.Name, wl.Describe())
		}
	}
	w.Flush()
	return nil
}

func figure2(out io.Writer, cfg experiments.Config) error {
	header(out, "Figure 2: throughput in single-core SMT (ICOUNT vs FLUSH-S30)")
	rows, avg, err := experiments.Figure2(cfg)
	if err != nil {
		return err
	}
	w := tabbed(out)
	fmt.Fprintln(w, "workload\tICOUNT IPC\tFLUSH-S30 IPC\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%s\n", r.Workload, r.ICOUNT, r.FlushS30, pct("%+.1f%%", r.Speedup))
	}
	fmt.Fprintf(w, "average\t\t\t%s\n", pct("%+.1f%%", avg))
	w.Flush()
	fmt.Fprintln(out, "paper: FLUSH speedups up to 93%, average 22%")
	return nil
}

func figure3(out io.Writer, cfg experiments.Config) error {
	header(out, "Figure 3: average throughput in multicore CMP+SMT configurations")
	rows, err := experiments.Figure3(cfg)
	if err != nil {
		return err
	}
	w := tabbed(out)
	fmt.Fprintln(w, "threads\tcores\tICOUNT IPC\tFLUSH-S30 IPC\tavg speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%dW\t%d\t%.3f\t%.3f\t%s\n",
			r.Threads, r.Cores, r.ICOUNT, r.FlushS30, pct("%+.1f%%", r.AvgSpeedup))
	}
	w.Flush()
	fmt.Fprintln(out, "paper: the single-core 22% advantage shrinks with core count and")
	fmt.Fprintln(out, "turns into a ~9% slowdown at 4 cores")
	return nil
}

func figure4(out io.Writer, cfg experiments.Config) error {
	header(out, "Figure 4: average L2 cache hit time (cycles from load issue, ICOUNT)")
	rows, err := experiments.Figure4(cfg)
	if err != nil {
		return err
	}
	w := tabbed(out)
	fmt.Fprintln(w, "threads\tcores\thits\tmean\tp50\tp90\tmax\t20-70cy share")
	for _, r := range rows {
		if r.Hits == 0 {
			// Every statistic of an empty distribution is undefined.
			fmt.Fprintf(w, "%dW\t%d\t0\tn/a\tn/a\tn/a\tn/a\tn/a\n", r.Threads, r.Cores)
			continue
		}
		fmt.Fprintf(w, "%dW\t%d\t%d\t%.1f\t%d\t%d\t%d\t%.0f%%\n",
			r.Threads, r.Cores, r.Hits, r.Mean, r.P50, r.P90, r.Max, r.Frac20to70*100)
	}
	w.Flush()
	fmt.Fprintln(out, "\ndistribution (10-cycle bins, share of hits):")
	w = tabbed(out)
	fmt.Fprint(w, "threads")
	for b := 0; b < 16; b++ {
		if b == 15 {
			fmt.Fprint(w, "\t150+")
		} else {
			fmt.Fprintf(w, "\t%d", b*10)
		}
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%dW", r.Threads)
		for _, b := range r.Buckets {
			fmt.Fprintf(w, "\t%s", pct("%.0f%%", float64(b)/float64(r.Hits)))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Fprintln(out, "paper: both the mean and the dispersion of the L2 hit time grow")
	fmt.Fprintln(out, "with the number of cores; no single threshold fits all cases")
	return nil
}

func figure5(out io.Writer, cfg experiments.Config) error {
	header(out, "Figure 5: Detection Moment analysis (FLUSH trigger sweep)")
	rows, err := experiments.Figure5(cfg)
	if err != nil {
		return err
	}
	w := tabbed(out)
	fmt.Fprintln(w, "workload\tpolicy\tIPC")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\n", r.Workload, r.Policy, r.IPC)
	}
	w.Flush()
	fmt.Fprintln(out, "paper: the best trigger is workload-dependent (50 for 8W3, 90 for")
	fmt.Fprintln(out, "bzip2/twolf) and non-speculative FLUSH wins on 8W3")
	return nil
}

func figure6(out io.Writer, _ experiments.Config) error {
	header(out, "Figure 6: MFLUSH operational environment")
	w := tabbed(out)
	fmt.Fprintln(w, "cores\tMIN\tMAX\tMT\tsuspicious\tBarrier(pred=MIN)\tBarrier(pred=55)")
	for cores := 1; cores <= 4; cores++ {
		c := config.Default(cores)
		env := policy.EnvironmentFor(&c)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			cores, env.Min, env.Max, env.MT, env.Suspicious(),
			env.Barrier(env.Min), env.Barrier(55))
	}
	w.Flush()
	fmt.Fprintln(out, "BARRIER = L2prediction + MIN/2 + MT;  suspicious = MIN + MT")
	fmt.Fprintln(out, "MT = (bus delay + L2 bank access delay) * (cores - 1)")
	return nil
}

func figure7(out io.Writer, _ experiments.Config) error {
	header(out, "Figure 7: MCReg hardware support (worked example, 4 cores x 4 banks)")
	c := config.Default(4)
	env := policy.EnvironmentFor(&c)
	f := policy.NewMCRegFile(c.Mem.L2.Banks, 1, env.Min)
	f.Update(2, 55) // the paper's example: bank 2 last hit in 55 cycles
	w := tabbed(out)
	fmt.Fprintln(w, "bank\tMCReg (last L2 hit latency)\tpredicted barrier")
	for b := 0; b < f.Banks(); b++ {
		pred := f.Predict(b)
		fmt.Fprintf(w, "%d\t%d cycles\t%d cycles\n", b, pred, env.Barrier(pred))
	}
	w.Flush()
	fmt.Fprintln(out, "an L1 miss in core 0 to bank 2 predicts a 55-cycle L2 hit latency")
	return nil
}

func figure8(out io.Writer, cfg experiments.Config) error {
	header(out, "Figure 8: throughput results (4W/6W/8W workloads)")
	rows, err := experiments.Figure8(cfg)
	if err != nil {
		return err
	}
	w := tabbed(out)
	fmt.Fprintln(w, "workload\tICOUNT\tFLUSH-S30\tFLUSH-S100\tMFLUSH")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n",
			r.Workload, r.ICOUNT, r.FlushS30, r.FlushS100, r.MFLUSH)
	}
	ic, s30, s100, mf := experiments.Figure8Averages(rows)
	fmt.Fprintf(w, "average\t%.3f\t%.3f\t%.3f\t%.3f\n", ic, s30, s100, mf)
	w.Flush()
	fmt.Fprintf(out, "MFLUSH vs FLUSH-S100: %s\n", pct("%+.1f%%", mf/s100-1))
	fmt.Fprintln(out, "paper: MFLUSH within ~2% of FLUSH-S100 with no a-priori trigger;")
	fmt.Fprintln(out, "FLUSH-S30 sometimes loses to ICOUNT")
	return nil
}

func figure9(out io.Writer, _ experiments.Config) error {
	header(out, "Figure 9: energy consumption distribution per resource")
	w := tabbed(out)
	fmt.Fprintln(w, "resource\tshare\tpipeline stages")
	for _, r := range energy.Distribution() {
		var names []string
		for _, s := range r.Stages {
			names = append(names, s.String())
		}
		fmt.Fprintf(w, "%s\t%.0f%%\t%s\n", r.Resource, r.Share*100, strings.Join(names, ","))
	}
	w.Flush()
	return nil
}

func figure10(out io.Writer, _ experiments.Config) error {
	header(out, "Figure 10: Energy Consumption Factor")
	w := tabbed(out)
	fmt.Fprintln(w, "pipeline stage\tlocal\taccumulated")
	for s := energy.Stage(0); s < energy.Stage(energy.NumStages); s++ {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", s, energy.LocalFactor(s), energy.AccumFactor(s))
	}
	w.Flush()
	return nil
}

func ablations(out io.Writer, cfg experiments.Config) error {
	suites := []struct {
		name string
		run  func(experiments.Config) ([]experiments.AblationRow, error)
	}{
		{"MCReg history depth (paper §4.1 optional configuration)", experiments.AblationMCRegHistory},
		{"Response action: STALL vs FLUSH vs MFLUSH", experiments.AblationResponseAction},
		{"MSHR size (bounds per-thread memory-level parallelism)", experiments.AblationMSHR},
		{"Rename-register reservation (clog severity)", experiments.AblationRegReserve},
	}
	for _, s := range suites {
		header(out, "Ablation: "+s.name)
		rows, err := s.run(cfg)
		if err != nil {
			return err
		}
		w := tabbed(out)
		fmt.Fprintln(w, "workload\tvariant\tIPC\tflushes\twasted energy")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%d\t%.0f\n", r.Workload, r.Variant, r.IPC, r.Flushes, r.Wasted)
		}
		w.Flush()
		fmt.Fprintln(out)
	}
	return nil
}

func figure11(out io.Writer, cfg experiments.Config) error {
	header(out, "Figure 11: FLUSH wasted energy (energy units; 1 unit = 1 commit)")
	rows, err := experiments.Figure11(cfg)
	if err != nil {
		return err
	}
	w := tabbed(out)
	fmt.Fprintln(w, "workload\tFLUSH-S30\tFLUSH-S100\tMFLUSH\tMFLUSH vs S100")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%s\n",
			r.Workload, r.FlushS30, r.FlushS100, r.MFLUSH, pct("%+.0f%%", -(1-r.MFLUSH/r.FlushS100)))
	}
	s30, s100, mf, saving := experiments.Figure11Averages(rows)
	fmt.Fprintf(w, "total\t%.0f\t%.0f\t%.0f\t%s\n", s30, s100, mf, pct("%+.0f%%", -saving))
	w.Flush()
	fmt.Fprintln(out, "paper: MFLUSH wastes ~20% less energy than FLUSH-S100, which in")
	fmt.Fprintln(out, "turn wastes ~10% more than FLUSH-S30")
	return nil
}
