// Command mflushsweep runs a simulation campaign: the cartesian sweep of
// workloads × policies × seeds × machine tweaks declared by flags or a
// JSON spec file, executed on a bounded worker pool with every completed
// job persisted to a JSONL store. Re-invoking with -resume skips jobs
// the store already holds, so a killed campaign continues where it
// stopped. Aggregates (mean/min/max and 95% CI per cell across seeds)
// are written as CSV and JSON and printed as a table.
//
// Usage:
//
//	mflushsweep -workloads 2W1,2W3 -policies ICOUNT,MFLUSH -seeds 1,2,3 \
//	    [-cycles N] [-warmup N] [-jobs N] [-out DIR]
//	mflushsweep -spec sweep.json [-resume] [-out DIR]
//
// See CAMPAIGNS.md for the spec file format and resume semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/campaign"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mflushsweep: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	specPath := flag.String("spec", "", "JSON campaign spec file (overrides the grid flags)")
	workloads := flag.String("workloads", "", "comma-separated workload names (2W1..8W5, 8W-bzip2-twolf)")
	policies := flag.String("policies", "", "comma-separated policies (ICOUNT, FLUSH-S30, MFLUSH, ...)")
	seeds := flag.String("seeds", "1", "comma-separated synthesis seeds")
	cycles := flag.Uint64("cycles", 200000, "measured cycles per simulation")
	warmup := flag.Uint64("warmup", 300000, "warm-up cycles per simulation")
	jobs := flag.Int("jobs", 0, "parallel simulations (0: GOMAXPROCS)")
	out := flag.String("out", "sweep", "output directory (results.jsonl, aggregate.csv, aggregate.json)")
	resume := flag.Bool("resume", false, "continue an interrupted campaign from OUT/results.jsonl")
	quiet := flag.Bool("q", false, "suppress per-job progress on stderr")
	flag.Parse()

	spec, err := buildSpec(*specPath, *workloads, *policies, *seeds, *cycles, *warmup)
	if err != nil {
		return err
	}
	jobList, err := spec.Jobs()
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	storePath := filepath.Join(*out, "results.jsonl")
	if _, err := os.Stat(storePath); err == nil && !*resume {
		return fmt.Errorf("%s exists; pass -resume to continue it or remove it to start over", storePath)
	}
	store, err := campaign.OpenStore(storePath)
	if err != nil {
		return err
	}
	defer store.Close()
	if *resume && store.Len() > 0 {
		fmt.Fprintf(os.Stderr, "mflushsweep: resuming: %d of %d jobs already complete\n",
			store.Len(), len(jobList))
	}

	// Ctrl-C stops scheduling; completed jobs are already on disk, so a
	// later -resume run picks up the remainder.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sched := &campaign.Scheduler{Workers: *jobs}
	if !*quiet {
		sched.OnProgress = func(p campaign.Progress) {
			status := ""
			if p.Cached {
				status = " (cached)"
			}
			if p.Err != nil {
				status = " FAILED: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s%s\n", p.Done, p.Total, p.Job, status)
		}
	}
	records, err := sched.Run(ctx, jobList, store)
	if err != nil {
		// A real simulation failure takes precedence over a concurrent
		// Ctrl-C; only a bare cancellation reads as "interrupted".
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted: %d of %d jobs complete; re-run with -resume",
				store.Len(), len(jobList))
		}
		return err
	}

	cells := campaign.Aggregate(records)
	csvF, err := os.Create(filepath.Join(*out, "aggregate.csv"))
	if err != nil {
		return err
	}
	if err := campaign.WriteCSV(csvF, cells); err != nil {
		csvF.Close()
		return err
	}
	if err := csvF.Close(); err != nil {
		return err
	}
	jsonF, err := os.Create(filepath.Join(*out, "aggregate.json"))
	if err != nil {
		return err
	}
	if err := campaign.WriteJSON(jsonF, cells); err != nil {
		jsonF.Close()
		return err
	}
	if err := jsonF.Close(); err != nil {
		return err
	}

	if _, err := campaign.Table(cells).WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mflushsweep: %d jobs, %d cells -> %s\n",
		len(jobList), len(cells), *out)
	return nil
}

// buildSpec loads the spec file, or assembles a spec from the grid flags.
func buildSpec(specPath, workloads, policies, seeds string, cycles, warmup uint64) (campaign.Spec, error) {
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return campaign.Spec{}, err
		}
		defer f.Close()
		return campaign.ReadSpec(f)
	}
	if workloads == "" || policies == "" {
		return campaign.Spec{}, fmt.Errorf("need -spec, or -workloads and -policies")
	}
	seedList, err := parseSeeds(seeds)
	if err != nil {
		return campaign.Spec{}, err
	}
	return campaign.Spec{
		Workloads: splitList(workloads),
		Policies:  splitList(policies),
		Seeds:     seedList,
		Cycles:    cycles,
		Warmup:    warmup,
	}, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range splitList(s) {
		n, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
