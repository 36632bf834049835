package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
	paper "repro/internal/workload"
)

// env is what every workload instance of one run shares.
type env struct {
	seed   uint64
	shrink uint64
	dir    string // the run's temporary directory
}

// window scales a (warm-up, measured) cycle budget by the run's shrink.
func (e *env) window(warmup, cycles uint64) (uint64, uint64) {
	return warmup / e.shrink, cycles / e.shrink
}

// setupClient is the client index reserved for set-up warm-up
// operations, so their seeds never collide with measured ones. Every
// set-up of every run warms up with the same operations, whatever the
// run's seed, so setup_s compares equal work across set-ups and runs;
// each set-up has its own store, so no warm-up is served from a cache.
const setupClient = 15

// opSeed derives the simulation seed of member k of operation i of
// client c from the run's seed. The bit fields make every (c, i, k)
// distinct, so no measured simulation repeats a seed within a pass.
func opSeed(seed uint64, c, i, k int) uint64 {
	if c == setupClient {
		seed = 0
	}
	return seed<<32 | uint64(c)<<28 | uint64(i)<<4 | uint64(k)
}

// instance is one set-up copy of a workload.
type instance interface {
	// prepare runs untimed work after set-up and before measurement,
	// such as computing the outputs a cross-path check compares against.
	prepare() error
	// op runs operation i of client c. Clients run concurrently, each
	// one operation at a time.
	op(c, i int) (opResult, error)
	// check runs the untimed end-of-run cross-path check.
	check() error
	close() error
}

// workload is one benchmark traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop clients.
	clients int
	// jobs returns the jobs operation i of client c simulates (for a
	// service cache-hit operation, the jobs it resubmits).
	jobs func(e *env, c, i int) []campaign.Job
	// setup builds an instance and runs its warm-up operation.
	setup func(e *env, tr *tracer) (instance, error)
}

// The four workloads. Why each was chosen is in README.md.
var workloads = []*workload{
	soloWorkload("solo-mem", "8W3", []string{"ICOUNT", "FLUSH-S30", "FLUSH-NS", "MFLUSH"}),
	soloWorkload("solo-ilp", "2W1", []string{"ICOUNT", "MFLUSH"}),
	sweepWorkload(),
	serviceWorkload(),
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// mustWorkload resolves a paper workload name of the fixed table above.
func mustWorkload(name string) paper.Workload {
	w, ok := paper.ByName(name)
	if !ok {
		panic("mflushperf: unknown workload " + name)
	}
	return w
}

func mustPolicy(name string) sim.PolicySpec {
	p, err := sim.ParseSpec(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Solo windows: a 30k-cycle warm-up and a 10k-cycle measured window.
// Both solo workloads use the same window, so they differ only in the
// chip; the window is short enough that a run of the benchmark's length
// (25 s) takes well over the 100 samples its p90 needs on 8W3.
const soloWarmup, soloCycles = 30000, 10000

// soloWorkload runs sequential sim.Run calls on one paper workload,
// rotating through the policies.
func soloWorkload(name, wl string, policies []string) *workload {
	w := mustWorkload(wl)
	specs := make([]sim.PolicySpec, len(policies))
	for i, p := range policies {
		specs[i] = mustPolicy(p)
	}
	jobs := func(e *env, c, i int) []campaign.Job {
		warmup, cycles := e.window(soloWarmup, soloCycles)
		return []campaign.Job{{
			Workload: w, Policy: specs[i%len(specs)], Seed: opSeed(e.seed, c, i, 0),
			Cycles: cycles, Warmup: warmup,
		}}
	}
	wd := &workload{name: name, clients: 1, jobs: jobs}
	wd.setup = func(e *env, tr *tracer) (instance, error) {
		// The warm-up operation: one simulation on the same chip.
		_, err := tr.runSolo(jobs(e, setupClient, 0)[0].Options())
		return &soloInstance{w: wd, e: e, tr: tr}, err
	}
	return wd
}

// soloInstance runs one job per operation, calling the simulator directly.
type soloInstance struct {
	w     *workload
	e     *env
	tr    *tracer
	first []byte // operation (0, 0)'s output, re-checked at the end
}

func (s *soloInstance) prepare() error { return nil }

func (s *soloInstance) op(c, i int) (opResult, error) {
	j := s.w.jobs(s.e, c, i)[0]
	start := time.Now()
	done := s.tr.beginOp(opID(c, i), []campaign.Job{j}, true)
	res, err := s.tr.runSolo(j.Options())
	if err != nil {
		return opResult{}, err
	}
	out, err := json.Marshal(res.Summary())
	if err != nil {
		return opResult{}, err
	}
	lat := time.Since(start)
	done()
	if c == 0 && i == 0 {
		s.first = out
	}
	return opResult{latency: lat, jobs: 1, simCycles: j.Warmup + j.Cycles, output: out}, nil
}

// check re-runs the first operation's job and requires byte-identical
// output: the simulator must be deterministic run to run.
func (s *soloInstance) check() error {
	if s.first == nil {
		return fmt.Errorf("solo: the first operation did not complete")
	}
	res, err := sim.Run(s.w.jobs(s.e, 0, 0)[0].Options())
	if err != nil {
		return err
	}
	out, err := json.Marshal(res.Summary())
	if err != nil {
		return err
	}
	if !bytes.Equal(out, s.first) {
		return fmt.Errorf("solo: re-running the first job gave a different summary")
	}
	return nil
}

func (s *soloInstance) close() error { return nil }

// Sweep window: a 10k-cycle warm-up and 5k measured cycles per job, so
// a 25 s run completes well over the 100 campaigns its p90 needs.
const sweepWarmup, sweepCycles = 10000, 5000

// sweepPolicies are the four policies every sweep campaign crosses.
var sweepPolicies = []string{"ICOUNT", "FLUSH-S30", "FLUSH-NS", "MFLUSH"}

// sweepSpec is campaign i of client c: 4W3 × four policies × two fresh
// seeds, which the scheduler runs as two gangs of four.
func sweepSpec(e *env, c, i int) campaign.Spec {
	warmup, cycles := e.window(sweepWarmup, sweepCycles)
	return campaign.Spec{
		Workloads: []string{"4W3"}, Policies: sweepPolicies,
		Seeds:  []uint64{opSeed(e.seed, c, i, 0), opSeed(e.seed, c, i, 1)},
		Cycles: cycles, Warmup: warmup,
	}
}

func specJobs(s campaign.Spec) []campaign.Job {
	jobs, err := s.Jobs()
	if err != nil {
		panic(err) // the benchmark's own specs are valid by construction
	}
	return jobs
}

func sweepWorkload() *workload {
	w := &workload{name: "sweep-gang", clients: 1}
	w.jobs = func(e *env, c, i int) []campaign.Job { return specJobs(sweepSpec(e, c, i)) }
	w.setup = func(e *env, tr *tracer) (instance, error) {
		dir, err := os.MkdirTemp(e.dir, "sweep-")
		if err != nil {
			return nil, err
		}
		store, err := campaign.OpenStore(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			return nil, err
		}
		s := &sweepInstance{e: e, tr: tr, store: store, sched: &campaign.Scheduler{
			Workers: 2, GangWidth: 4, Runner: tr.soloRunner(), GangRunner: tr.gangRunner(),
		}}
		if _, _, _, err := s.campaign(setupClient, 0); err != nil {
			store.Close()
			return nil, err
		}
		return s, nil
	}
	return w
}

// sweepInstance runs campaigns through a gang scheduler onto a JSONL store.
type sweepInstance struct {
	e     *env
	tr    *tracer
	store *campaign.Store
	sched *campaign.Scheduler
	// want holds the solo sim.Run summaries of the first campaign's jobs,
	// by job key.
	want map[string][]byte
}

// prepare simulates the first campaign's jobs one by one through
// sim.Run, the reference its gang-executed records must match.
func (s *sweepInstance) prepare() error {
	s.want = make(map[string][]byte)
	for _, j := range specJobs(sweepSpec(s.e, 0, 0)) {
		res, err := sim.Run(j.Options())
		if err != nil {
			return err
		}
		out, err := json.Marshal(res.Summary())
		if err != nil {
			return err
		}
		s.want[j.Key()] = out
	}
	return nil
}

func (s *sweepInstance) op(c, i int) (opResult, error) {
	start := time.Now()
	jobs, records, csv, err := s.campaign(c, i)
	if err != nil {
		return opResult{}, err
	}
	lat := time.Since(start)
	out, err := json.Marshal(records)
	if err != nil {
		return opResult{}, err
	}
	var cycles uint64
	for _, j := range jobs {
		cycles += j.Warmup + j.Cycles
	}
	if c == 0 && i == 0 {
		for _, r := range records {
			got, err := json.Marshal(r.Summary)
			if err != nil {
				return opResult{}, err
			}
			if !bytes.Equal(got, s.want[r.Key]) {
				return opResult{}, fmt.Errorf("sweep: gang record %s differs from its solo sim.Run", r.Key)
			}
		}
	}
	return opResult{latency: lat, jobs: len(jobs), simCycles: cycles, output: append(out, csv...)}, nil
}

// campaign runs sweep campaign i of client c and folds its records into
// the aggregate CSV, as a sweep user would.
func (s *sweepInstance) campaign(c, i int) ([]campaign.Job, []campaign.Record, []byte, error) {
	spec := sweepSpec(s.e, c, i)
	t := time.Now()
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, nil, nil, err
	}
	s.tr.observe("campaign.spec_jobs", time.Since(t))
	done := s.tr.beginOp(opID(c, i), jobs, true)
	records, err := s.sched.Run(context.Background(), jobs, s.store)
	if err != nil {
		return nil, nil, nil, err
	}
	t = time.Now()
	var csv bytes.Buffer
	if err := campaign.WriteCSV(&csv, campaign.Aggregate(records)); err != nil {
		return nil, nil, nil, err
	}
	s.tr.observe("campaign.aggregate", time.Since(t))
	done()
	return jobs, records, csv.Bytes(), nil
}

func (s *sweepInstance) check() error { return nil }

func (s *sweepInstance) close() error { return s.store.Close() }

// opID names operation i of client c in spans.
func opID(c, i int) string { return fmt.Sprintf("c%d-%d", c, i) }
