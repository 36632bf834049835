package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// minLatencySamples is how many latency samples the measured phase
	// collects at least, even past its wall time on a slow host: the
	// p90 of n samples has n/10 beyond it, and a tail percentile is only
	// reported with at least ten.
	minLatencySamples = 100
	// setupReps is how often a run sets its workload up; setup_s is the
	// median, and the last instance is the one measured.
	setupReps = 9
	// digestOps is how many leading operations of each client the
	// outputs digest covers. Every run completes far more, so the digest
	// of a seed does not depend on how fast the host is.
	digestOps = 8
)

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload *workload
	Seed     uint64
	Seconds  float64
	Trace    bool
	// SpansPath is where a traced run writes its spans; empty: a file
	// named after the workload and seed under WorkDir.
	SpansPath string
	// WorkDir holds the run's temporary stores and state directories.
	WorkDir   string
	MinOps    int
	SetupReps int
	Pins      pins
	// Shrink divides every simulated cycle budget: 1 for real runs,
	// larger for the package's toy-scale tests.
	Shrink uint64
	Out    io.Writer
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra holds the layer timings of layers only some workloads cross;
	// they are printed and recorded, but are not part of the result line.
	extra map[string]metric
}

// pins are the expected outputs digests of every workload at one seed.
type pins struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"outputs_digest"`
}

//go:embed expected.json
var expectedJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return pins{}, fmt.Errorf("expected.json: %w", err)
	}
	return p, nil
}

// opResult is what one operation produced.
type opResult struct {
	latency time.Duration
	// hit marks a service operation served entirely from the cache; its
	// latency is a hit latency, not an operation latency.
	hit bool
	// jobs counts the jobs the operation completed, cache hits included.
	jobs int
	// simCycles counts the cycles simulated afresh, over all members.
	simCycles uint64
	// output is what the outputs digest covers.
	output []byte
}

// opOutcome is one attempted operation.
type opOutcome struct {
	res opResult
	err error
}

// pass is one measured phase.
type pass struct {
	wall time.Duration
	cpu  time.Duration
	// ops holds every client's outcomes in operation order.
	ops [][]opOutcome
}

// measure runs closed-loop operations on every client until dur has
// passed, the client has run the digestOps operations the outputs
// digest covers, and at least minOps latency samples are in (or an
// operation failed), and returns the outcomes.
func measure(inst instance, clients int, dur time.Duration, minOps int) *pass {
	p := &pass{ops: make([][]opOutcome, clients)}
	var samples, failed atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= digestOps && time.Since(start) >= dur && (samples.Load() >= int64(minOps) || failed.Load() > 0) {
					return
				}
				res, err := inst.op(c, i)
				switch {
				case err != nil:
					failed.Add(1)
				case !res.hit:
					samples.Add(1)
				}
				p.ops[c] = append(p.ops[c], opOutcome{res: res, err: err})
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	return p
}

// passStats folds a pass's outcomes.
type passStats struct {
	attempted, failed int
	jobs              int
	simCycles         uint64
	latency, hitLat   []float64 // milliseconds
	firstErr          error
}

func (p *pass) stats() passStats {
	var s passStats
	for _, ops := range p.ops {
		for _, o := range ops {
			s.attempted++
			if o.err != nil {
				s.failed++
				if s.firstErr == nil {
					s.firstErr = o.err
				}
				continue
			}
			s.jobs += o.res.jobs
			s.simCycles += o.res.simCycles
			ms := float64(o.res.latency) / float64(time.Millisecond)
			if o.res.hit {
				s.hitLat = append(s.hitLat, ms)
			} else {
				s.latency = append(s.latency, ms)
			}
		}
	}
	return s
}

// digest hashes the outputs of every client's first digestOps
// operations; ok is false when one of them is missing or failed.
func (p *pass) digest() (sum string, ok bool) {
	h := sha256.New()
	for c, ops := range p.ops {
		if len(ops) < digestOps {
			return "", false
		}
		for i, o := range ops[:digestOps] {
			if o.err != nil {
				return "", false
			}
			fmt.Fprintf(h, "%d/%d %d\n", c, i, len(o.res.output))
			h.Write(o.res.output)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// execute runs the configured workload and prints its report; the
// result's last line has already been written to cfg.Out on return.
func execute(cfg runConfig) (result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	out := cfg.Out
	traceFlag := 0
	if cfg.Trace {
		traceFlag = 1
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %d\n", cfg.Workload.name, cfg.Seed, cfg.Seconds, traceFlag)

	e := &env{seed: cfg.Seed, shrink: cfg.Shrink, dir: dir}
	setupTimes, inst, err := setUp(cfg.Workload, e, nil, cfg.SetupReps)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "setup_s each %.4f\n", setupTimes)
	dur := time.Duration(cfg.Seconds * float64(time.Second))
	minOps := cfg.MinOps
	if cfg.Trace {
		// The traced run splits its time between an untraced and a traced
		// pass; neither reports a tail percentile.
		dur /= 2
		minOps = digestOps
	}
	p := measure(inst, cfg.Workload.clients, dur, minOps)
	checkErr := inst.check()
	if err := inst.close(); err != nil && checkErr == nil {
		checkErr = fmt.Errorf("close: %w", err)
	}
	st := p.stats()
	res := result{Attempted: st.attempted, Failed: st.failed, Correct: st.failed == 0}
	fmt.Fprintf(out, "ops %d latency_samples %d hit_samples %d jobs %d wall_s %.3f\n",
		st.attempted, len(st.latency), len(st.hitLat), st.jobs, p.wall.Seconds())
	if st.firstErr != nil {
		fmt.Fprintf(out, "error first failed operation: %v\n", st.firstErr)
	}
	if checkErr != nil {
		fmt.Fprintf(out, "error cross-path check: %v\n", checkErr)
		res.Failed++
		res.Correct = false
	}
	sum, complete := p.digest()
	res.Correct = res.Correct && checkDigest(out, cfg, sum, complete)
	if !res.Correct {
		// The outputs disagree with what the program must produce, so
		// none of the run's operations can be trusted.
		res.Failed = max(res.Failed, res.Attempted)
	}

	if cfg.Trace {
		if err := tracedRun(cfg, e, p, sum, &res); err != nil {
			return result{}, err
		}
	} else {
		res.Metrics, res.extra = endToEnd(setupTimes, p, st)
	}
	fmt.Fprintf(out, "error_rate %g (%d/%d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	printMetrics(out, res)
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// checkDigest prints the run's outputs digest and compares it with the
// pinned one when the run used the pinned seed.
func checkDigest(out io.Writer, cfg runConfig, sum string, complete bool) bool {
	if !complete {
		fmt.Fprintf(out, "error outputs_digest: fewer than %d successful operations per client\n", digestOps)
		return false
	}
	if cfg.Seed != cfg.Pins.Seed {
		fmt.Fprintf(out, "check outputs_digest %s (no pin for seed %d)\n", sum, cfg.Seed)
		return true
	}
	want, ok := cfg.Pins.Digests[cfg.Workload.name]
	switch {
	case !ok:
		fmt.Fprintf(out, "error outputs_digest %s: no pin for workload %s\n", sum, cfg.Workload.name)
		return false
	case want != sum:
		fmt.Fprintf(out, "error outputs_digest %s, pinned %s\n", sum, want)
		return false
	}
	fmt.Fprintf(out, "check outputs_digest %s matches the pin\n", sum)
	return true
}

// setUp builds the workload reps times and returns every set-up time
// and the last instance, prepared for measurement. Each set-up includes
// one untimed-by-the-loop warm-up operation, so lazy initialisation is
// paid before the measured phase.
func setUp(w *workload, e *env, tr *tracer, reps int) ([]float64, instance, error) {
	var times []float64
	var inst instance
	for range reps {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		inst, err = w.setup(e, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	if err := inst.prepare(); err != nil {
		inst.close()
		return nil, nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	return times, inst, nil
}

// endToEnd computes the untraced run's end-to-end metrics.
func endToEnd(setupTimes []float64, p *pass, st passStats) (map[string]metric, map[string]metric) {
	m := map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"jobs_per_s":       {float64(st.jobs) / p.wall.Seconds(), "jobs/s"},
		"sim_cycles_per_s": {float64(st.simCycles) / p.wall.Seconds(), "cycles/s"},
		"cpu_ms_per_job":   {float64(p.cpu) / float64(time.Millisecond) / float64(max(st.jobs, 1)), "ms"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
	if len(st.latency) > 0 {
		m["latency_p50_ms"] = metric{percentile(st.latency, 0.5), "ms"}
	}
	if p90, ok := tailP90(st.latency); ok {
		m["latency_p90_ms"] = metric{p90, "ms"}
	}
	extra := map[string]metric{}
	if len(st.hitLat) > 0 {
		extra["hit_latency_p50_ms"] = metric{percentile(st.hitLat, 0.5), "ms"}
		if p90, ok := tailP90(st.hitLat); ok {
			extra["hit_latency_p90_ms"] = metric{p90, "ms"}
		}
	}
	return m, extra
}

// printMetrics writes one human-readable line per metric, sorted.
func printMetrics(out io.Writer, res result) {
	for _, set := range []struct {
		tag string
		m   map[string]metric
	}{{"metric", res.Metrics}, {"extra", res.extra}} {
		names := make([]string, 0, len(set.m))
		for n := range set.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "%s %s %s %s\n", set.tag, n, strconv.FormatFloat(set.m[n].Value, 'g', -1, 64), set.m[n].Unit)
		}
	}
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// tailP90 returns the p90 of xs when at least ten samples lie beyond
// it, the rule for reporting a tail percentile.
func tailP90(xs []float64) (float64, bool) {
	if len(xs) < 100 {
		return 0, false
	}
	return percentile(xs, 0.9), true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// record is one line of a -record file: a run's result with what it ran.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Extra    map[string]metric `json:"extra,omitempty"`
}

func appendRecord(path string, cfg runConfig, res result) error {
	line, err := json.Marshal(record{
		Workload: cfg.Workload.name, Seed: cfg.Seed, Trace: cfg.Trace, Result: res, Extra: res.extra,
	})
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a -record file.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for n, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
