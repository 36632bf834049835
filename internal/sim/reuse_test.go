package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/workload"
)

// reuseSpecs is one policy of every family.
var reuseSpecs = []PolicySpec{SpecICOUNT, SpecFlushS(30), SpecFlushNS, SpecStallS(30), SpecMFLUSH, {Kind: MFLUSH, History: 4}}

// tightMachine has a 2-entry MSHR file and a 900-cycle TLB walk, which
// keep loads in retry delays and the MSHR waiter lists full.
func tightMachine(c *config.Config) {
	c.Core.MSHREntries = 2
	c.Mem.TLBMissLatency = 900
}

// summaryJSON is the serialised Summary: every figure a Result reports.
func summaryJSON(t testing.TB, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runOn runs opt as Run does, on a machine from the pool (reuse) or on a
// new one kept out of it, and returns the summary and the machine the
// run used.
func runOn(t testing.TB, opt Options, reuse bool) ([]byte, *machine) {
	t.Helper()
	s, err := open(opt, reuse)
	if err != nil {
		t.Fatal(err)
	}
	m := s.m
	if opt.Warmup > 0 {
		s.Step(opt.Warmup)
		s.ResetMeasurement()
	}
	s.Step(opt.Cycles)
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return summaryJSON(t, res), m
}

// reusePair runs prev and then job on the machine prev finished with, and
// fails unless job's summary equals a run of job on a new machine. It
// reports whether job really got prev's machine: a garbage collection
// between the two frees it.
func reusePair(t testing.TB, prev, job Options) bool {
	t.Helper()
	_, pm := runOn(t, prev, true)
	got, m := runOn(t, job, true)
	want, _ := runOn(t, job, false)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s/%s seed %d after %s/%s seed %d: reused machine's summary\n %s\nnew machine's\n %s",
			job.Name, job.Policy, job.Seed, prev.Name, prev.Policy, prev.Seed, got, want)
	}
	return m == pm
}

// TestReusedMachineMatchesFresh: every policy family on 1-, 2- and 4-core
// workloads, plain and tight, and a trace replay with far-memory
// overrides, each run on a machine whose last job was a different one,
// report byte-identical summaries to runs on new machines. A third of the
// previous jobs ran the same workload (the prewarm image is copied back),
// the rest another one (prewarm refills).
func TestReusedMachineMatchesFresh(t *testing.T) {
	warmup, cycles := uint64(3000), uint64(6000)
	if testing.Short() {
		warmup, cycles = 1000, 2000
	}
	// 2W3 and 2W4 prewarm one footprint each, of different sizes.
	pairs := [][2]string{{"2W3", "2W4"}, {"4W3", "4W2"}, {"8W3", "8W1"}}
	reused, runs := 0, 0
	for _, pair := range pairs {
		for _, tweak := range []func(*config.Config){nil, tightMachine} {
			for i, spec := range reuseSpecs {
				// A third of the jobs follow their own workload, the rest
				// the pair's other one, in both directions.
				roles := [3][2]int{{0, 0}, {0, 1}, {1, 0}}[i%3]
				jobName, prevName := pair[roles[0]], pair[roles[1]]
				w, _ := workload.ByName(jobName)
				prevW, _ := workload.ByName(prevName)
				job := Options{Workload: w, Name: jobName, Policy: spec, Seed: uint64(10 + i), Warmup: warmup, Cycles: cycles, Tweak: tweak}
				prev := Options{Workload: prevW, Name: prevName, Policy: reuseSpecs[(i+1)%len(reuseSpecs)],
					Seed: uint64(20 + i), Warmup: warmup / 2, Cycles: cycles, Tweak: tweak}
				if reusePair(t, prev, job) {
					reused++
				}
				runs++
			}
		}
	}
	// Trace replay after a synthetic job, and a synthetic job after it.
	w, _ := workload.ByName("4W3")
	replay := Options{Name: "replay", Policy: SpecMFLUSH, Seed: 5, Warmup: warmup, Cycles: cycles, ThreadTraces: farMemoryTraces(t)}
	synth := Options{Workload: w, Name: "4W3", Policy: SpecFlushS(30), Seed: 6, Warmup: warmup, Cycles: cycles}
	for _, p := range [][2]Options{{synth, replay}, {replay, synth}} {
		if reusePair(t, p[0], p[1]) {
			reused++
		}
		runs++
	}
	t.Logf("%d of %d jobs ran on their predecessor's machine", reused, runs)
	if reused == 0 {
		t.Fatal("no job ever ran on a recycled machine")
	}
}

// FuzzMachineReuse runs a random sequence of jobs through the pool and
// requires each to report what it reports on a new machine.
func FuzzMachineReuse(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0x21, 0x21, 0x53, 0x07, 0xff})
	f.Add([]byte{0x80, 0x00, 0x80, 0x41, 0x80})
	names := []string{"2W1", "2W4", "4W3", "4W5", "8W2"}
	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) > 6 {
			seq = seq[:6]
		}
		for i, b := range seq {
			w, _ := workload.ByName(names[int(b)%len(names)])
			opt := Options{Workload: w, Name: w.Name, Policy: reuseSpecs[int(b>>3)%len(reuseSpecs)],
				Seed: uint64(b>>6) + 1, Warmup: 300 * uint64(b&1), Cycles: 700}
			if b&0x80 != 0 {
				opt.Tweak = tightMachine
			}
			got, _ := runOn(t, opt, true)
			want, _ := runOn(t, opt, false)
			if !bytes.Equal(got, want) {
				t.Fatalf("job %d (%#x): reused machine's summary\n %s\nnew machine's\n %s", i, b, got, want)
			}
		}
	})
}

// TestResultOutlivesMachine: a Result shares nothing with the machine
// that produced it, so the next job on that machine leaves it unchanged.
func TestResultOutlivesMachine(t *testing.T) {
	w, _ := workload.ByName("4W3")
	a := Options{Workload: w, Policy: SpecMFLUSH, Seed: 1, Warmup: 1000, Cycles: 3000}
	b := a
	b.Seed, b.Policy = 2, SpecFlushS(30)
	// A garbage collection between the jobs frees A's machine, so retry
	// until B lands on it.
	for range 12 {
		s, err := Open(a)
		if err != nil {
			t.Fatal(err)
		}
		m := s.m
		s.Step(a.Warmup)
		s.ResetMeasurement()
		s.Step(a.Cycles)
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		before := summaryJSON(t, res)
		_, mb := runOn(t, b, true)
		if after := summaryJSON(t, res); !bytes.Equal(before, after) {
			t.Fatalf("job B changed job A's summary:\n before %s\n after  %s", before, after)
		}
		if mb == m {
			return
		}
	}
	t.Fatal("job B never ran on job A's machine")
}

// TestSessionAfterFinish: a finished session, solo or in a gang, never
// touches its machine again. MeasuredCycles reports the final window,
// and every call that would read or step the machine panics or errors.
func TestSessionAfterFinish(t *testing.T) {
	w, _ := workload.ByName("2W1")
	opt := Options{Workload: w, Policy: SpecICOUNT, Seed: 1}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(500)
	s.ResetMeasurement()
	s.Step(700)
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if s.m != nil {
		t.Error("a finished session still holds its machine")
	}
	if n := s.MeasuredCycles(); n != 700 {
		t.Errorf("MeasuredCycles after Finish = %d, want the final window 700", n)
	}
	if err := s.Observe(Probe{Every: 1, Fn: func(*Sample) {}}); err == nil {
		t.Error("Observe after Finish succeeded")
	}
	if _, err := s.Finish(); err == nil {
		t.Error("second Finish succeeded")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Finish did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Step", func() { s.Step(1) })
	mustPanic("ResetMeasurement", s.ResetMeasurement)
	mustPanic("Snapshot", func() { s.Snapshot() })

	g, err := OpenGang([]Options{opt, {Workload: w, Policy: SpecMFLUSH, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g.Step(600)
	if _, err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	for i, m := range g.members {
		if m.m != nil {
			t.Errorf("finished gang member %d still holds its machine", i)
		}
	}
	mustPanic("gang Step", func() { g.Step(1) })
	mustPanic("gang ResetMeasurement", g.ResetMeasurement)
	if _, err := g.Finish(); err == nil {
		t.Error("second gang Finish succeeded")
	}
}

// TestMachinePoolForgetsDroppedConfigs: jobs on 20 distinct tweaks pool
// one machine under each of 20 keys. Once nothing holds those machines
// and the collector has run, the pool holds live machines only and none
// of the 20 keys, so a configuration that falls out of use costs it
// nothing.
func TestMachinePoolForgetsDroppedConfigs(t *testing.T) {
	w, ok := workload.ByName("2W1")
	if !ok {
		t.Fatal("unknown workload 2W1")
	}
	// No collection may free a machine before all 20 are pooled.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var keys []config.Config
	for i := 0; i < 20; i++ {
		tweak := func(c *config.Config) { c.Mem.TLBMissLatency = 500 + i }
		if _, err := Run(Options{Workload: w, Policy: SpecICOUNT, Seed: 1, Cycles: 500, Tweak: tweak}); err != nil {
			t.Fatal(err)
		}
		cfg := config.Default(w.Cores())
		tweak(&cfg)
		keys = append(keys, poolKey(cfg))
	}
	// pooled counts the 20 keys still in the pool and reports whether
	// every entry of the pool is a live machine.
	pooled := func() (n int, allLive bool) {
		machines.mu.Lock()
		defer machines.mu.Unlock()
		for _, k := range keys {
			if _, ok := machines.free[k]; ok {
				n++
			}
		}
		allLive = true
		for _, stack := range machines.free {
			for _, p := range stack {
				allLive = allLive && p.Value() != nil
			}
		}
		return n, allLive
	}
	if n, _ := pooled(); n != len(keys) {
		t.Fatalf("%d of the %d tweaked configurations pooled a machine, want all", n, len(keys))
	}
	debug.SetGCPercent(gcPercent)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n, allLive := pooled()
		if n == 0 && allLive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after collection the pool still holds %d of the %d dropped configurations (only live machines: %v)",
				n, len(keys), allLive)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
