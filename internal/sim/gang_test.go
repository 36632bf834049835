package sim

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/workload"
)

// gangOptions builds a maximal-sharing gang: one workload and seed, the
// paper's four policies — the policy-sweep shape campaign batching
// produces, where every member reads the same shared streams.
func gangOptions(t *testing.T, name string, seed, warmup, cycles uint64) []Options {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	var opts []Options
	for _, p := range []PolicySpec{SpecICOUNT, SpecFlushNS, SpecFlushS(30), SpecMFLUSH} {
		opts = append(opts, Options{Workload: w, Policy: p, Seed: seed, Warmup: warmup, Cycles: cycles})
	}
	return opts
}

// TestRunGangMatchesGolden proves gang execution does not move a single
// bit: the golden cases (pinned before the Session refactor, long before
// gangs existed) grouped into gangs by their shared cycle windows
// reproduce their exact pre-gang fingerprints.
func TestRunGangMatchesGolden(t *testing.T) {
	groups := map[[2]uint64][]goldenCase{}
	var order [][2]uint64
	for _, c := range goldenCases {
		k := [2]uint64{c.warmup, c.cycles}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		cases := groups[k]
		opts := make([]Options, len(cases))
		for i, c := range cases {
			opts[i] = c.options(t)
		}
		results, err := RunGang(opts)
		if err != nil {
			t.Fatalf("RunGang(warmup=%d cycles=%d): %v", k[0], k[1], err)
		}
		for i, c := range cases {
			if fp := fingerprint(results[i]); fp != c.golden {
				t.Errorf("%s/%s/seed=%d in gang: output drifted from golden\n got: %s\nwant: %s",
					c.workload, c.policy, c.seed, fp, c.golden)
			}
		}
	}
}

// TestRunGangSharedStreamsBitIdentity covers the maximal-sharing case —
// all members consuming the same memoised instruction streams — against
// solo Run, member by member.
func TestRunGangSharedStreamsBitIdentity(t *testing.T) {
	opts := gangOptions(t, "4W2", 7, 4000, 12000)
	results, err := RunGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	for m, o := range opts {
		solo, err := Run(o)
		if err != nil {
			t.Fatalf("solo member %d: %v", m, err)
		}
		if g, s := fingerprint(results[m]), fingerprint(solo); g != s {
			t.Errorf("member %d (%s): gang diverged from solo\n gang: %s\n solo: %s", m, o.Policy, g, s)
		}
	}
}

// TestGangWidthOneBuildsNoMemo pins what makes Run (a width-1 RunGang)
// cost what a solo build costs: a lone member reads its own generators,
// with no shared-stream memo behind it, and still reproduces Run.
func TestGangWidthOneBuildsNoMemo(t *testing.T) {
	opts := gangOptions(t, "2W3", 3, 2000, 6000)[3:]
	g, err := OpenGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.streams) != 0 {
		t.Fatalf("width-1 gang built %d shared streams, want none", len(g.streams))
	}
	g.Step(opts[0].Warmup)
	g.ResetMeasurement()
	g.Step(opts[0].Cycles)
	results, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Run(opts[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(results[0]), fingerprint(solo); got != want {
		t.Errorf("width-1 gang diverged from Run\n gang: %s\n  run: %s", got, want)
	}
}

// TestGangFinishMemberMidRun finishes one member halfway through the
// measured window while the rest keep stepping, and proves that (a) the
// early member's Result equals a solo session finished at the same
// point, and (b) the surviving members are byte-identical to solo full
// runs — early departure must not perturb the lockstep.
func TestGangFinishMemberMidRun(t *testing.T) {
	const warmup, half = 4000, 6000
	opts := gangOptions(t, "2W3", 5, warmup, 2*half)

	g, err := OpenGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	g.Step(warmup)
	g.ResetMeasurement()
	g.Step(half)
	early, err := g.FinishMember(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Open() != len(opts)-1 {
		t.Fatalf("Open() = %d after FinishMember, want %d", g.Open(), len(opts)-1)
	}
	g.Step(half)
	results, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if results[1] != early {
		t.Errorf("Finish returned a different Result for the early member")
	}

	soloHalf, err := Open(opts[1])
	if err != nil {
		t.Fatal(err)
	}
	soloHalf.Step(warmup)
	soloHalf.ResetMeasurement()
	soloHalf.Step(half)
	wantEarly, err := soloHalf.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g, s := fingerprint(early), fingerprint(wantEarly); g != s {
		t.Errorf("early-finished member diverged from solo half-run\n gang: %s\n solo: %s", g, s)
	}
	for _, m := range []int{0, 2, 3} {
		solo, err := Run(opts[m])
		if err != nil {
			t.Fatal(err)
		}
		if g, s := fingerprint(results[m]), fingerprint(solo); g != s {
			t.Errorf("member %d diverged from solo after sibling left early\n gang: %s\n solo: %s", m, g, s)
		}
	}
}

// TestGangStepContextCancel cancels a gang mid-step (from a member probe,
// so the cancellation lands while member goroutines are running) and
// proves the gang stops at a consistent lockstep barrier: resuming the
// remaining cycles yields results bit-identical to an uninterrupted run.
func TestGangStepContextCancel(t *testing.T) {
	const warmup, cycles = 2000, 14000
	opts := gangOptions(t, "2W1", 3, warmup, cycles)

	g, err := OpenGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// The probe fires on member 0's stepping goroutine; cancelling there
	// is observed at the next chunk barrier.
	if err := g.Observe(0, Probe{Every: 3000, Fn: func(*Sample) { cancel() }}); err != nil {
		t.Fatal(err)
	}
	g.Step(warmup)
	g.ResetMeasurement()

	done, err := g.StepContext(ctx, cycles)
	if err != context.Canceled {
		t.Fatalf("StepContext error = %v, want context.Canceled", err)
	}
	if done == 0 || done >= cycles {
		t.Fatalf("cancelled StepContext stepped %d of %d cycles, want a strict prefix", done, cycles)
	}
	for m := range opts {
		if got := g.MeasuredCycles(m); got != done {
			t.Fatalf("member %d at measured cycle %d after cancellation, gang stepped %d — lockstep broken", m, got, done)
		}
	}
	g.Step(cycles - done) // resume
	results, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for m, o := range opts {
		solo, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if g, s := fingerprint(results[m]), fingerprint(solo); g != s {
			t.Errorf("member %d diverged after cancel+resume\n gang: %s\n solo: %s", m, g, s)
		}
	}

	// A pre-cancelled context steps nothing.
	g2, err := OpenGang(opts[:1])
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if n, err := g2.StepContext(ctx2, 100); n != 0 || err != context.Canceled {
		t.Fatalf("pre-cancelled StepContext = (%d, %v), want (0, Canceled)", n, err)
	}
}

// TestGangNoGoroutineLeak steps and finishes gangs at every parallelism
// level and checks the process returns to its baseline goroutine count:
// the chunk barriers must not strand workers, including when members
// leave mid-gang.
func TestGangNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	opts := gangOptions(t, "2W1", 9, 0, 8000)
	for p := 1; p <= len(opts); p++ {
		g, err := OpenGang(opts)
		if err != nil {
			t.Fatal(err)
		}
		g.SetParallelism(p)
		g.Step(3000)
		if _, err := g.FinishMember(2); err != nil {
			t.Fatal(err)
		}
		g.Step(5000)
		if _, err := g.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	// Worker goroutines exit after the barrier releases them; give the
	// scheduler a moment before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGangLifecycleErrors pins the gang's error surface: invalid opens,
// out-of-range members, double finishes, stepping a closed gang.
func TestGangLifecycleErrors(t *testing.T) {
	if _, err := OpenGang(nil); err == nil {
		t.Error("OpenGang(nil) succeeded, want error")
	}
	if _, err := RunGang(nil); err == nil {
		t.Error("RunGang(nil) succeeded, want error")
	}

	w, _ := workload.ByName("2W1")
	mixed := []Options{
		{Workload: w, Policy: SpecICOUNT, Cycles: 1000},
		{Workload: w, Policy: SpecMFLUSH, Cycles: 2000},
	}
	if _, err := RunGang(mixed); err == nil || !strings.Contains(err.Error(), "lockstep window") {
		t.Errorf("RunGang with mixed budgets: err = %v, want lockstep-window error", err)
	}

	g, err := OpenGang([]Options{{Workload: w, Policy: SpecICOUNT, Cycles: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Observe(1, Probe{Every: 1, Fn: func(*Sample) {}}); err == nil {
		t.Error("Observe(out-of-range) succeeded, want error")
	}
	if err := g.Observe(0, Probe{Every: 0, Fn: func(*Sample) {}}); err == nil {
		t.Error("Observe with zero period succeeded, want error")
	}
	if err := g.Observe(0, Probe{Every: 1}); err == nil {
		t.Error("Observe with nil Fn succeeded, want error")
	}
	if _, err := g.FinishMember(-1); err == nil {
		t.Error("FinishMember(-1) succeeded, want error")
	}
	if _, err := g.FinishMember(0); err == nil {
		t.Error("FinishMember with empty window succeeded, want error")
	}
	g.Step(1000)
	if _, err := g.FinishMember(0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.FinishMember(0); err == nil {
		t.Error("double FinishMember succeeded, want error")
	}
	if err := g.Observe(0, Probe{Every: 1, Fn: func(*Sample) {}}); err == nil {
		t.Error("Observe on finished member succeeded, want error")
	}
	defer func() {
		if recover() == nil {
			t.Error("Step on a fully finished gang did not panic")
		}
	}()
	g.Step(1)
}

// TestGangParallelismClamps pins SetParallelism's clamping and the
// OpenGang default.
func TestGangParallelismClamps(t *testing.T) {
	opts := gangOptions(t, "2W1", 1, 0, 1000)
	g, err := OpenGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.GOMAXPROCS(0)
	if want > len(opts) {
		want = len(opts)
	}
	if got := g.Parallelism(); got != want {
		t.Errorf("default parallelism = %d, want min(GOMAXPROCS, width) = %d", got, want)
	}
	g.SetParallelism(0)
	if got := g.Parallelism(); got != 1 {
		t.Errorf("SetParallelism(0) -> %d, want clamp to 1", got)
	}
	g.SetParallelism(99)
	if got := g.Parallelism(); got != len(opts) {
		t.Errorf("SetParallelism(99) -> %d, want clamp to width %d", got, len(opts))
	}
}

// TestSharedStreamTrim exercises the stream memo directly: cursors at
// skewed positions read identical content, trimming drops only chunks
// below the slowest cursor, and released cursors stop pinning memory.
func TestSharedStreamTrim(t *testing.T) {
	opts := gangOptions(t, "2W1", 11, 0, 1)
	g, err := OpenGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.streams) == 0 {
		t.Fatal("policy-sweep gang built no shared streams")
	}
	st := g.streams[0]
	if len(st.cursors) != len(opts) {
		t.Fatalf("stream has %d cursors, want one per member (%d)", len(st.cursors), len(opts))
	}

	// Advance one cursor far ahead; the window must retain everything the
	// laggards still need.
	lead, lag := st.cursors[0], st.cursors[1]
	var a, b isa.Inst
	for i := 0; i < 3*streamChunkSize; i++ {
		lead.Next(&a)
	}
	st.trim()
	if w := st.w.Load(); w.base != 0 {
		t.Fatalf("trim dropped chunks below a live cursor: base = %d", w.base)
	}
	// Catch the laggards up past the first chunks; now trim may drop.
	for _, cur := range st.cursors[1:] {
		for i := 0; i < 2*streamChunkSize; i++ {
			cur.Next(&b)
		}
	}
	st.trim()
	if w := st.w.Load(); w.base != 2*streamChunkSize {
		t.Fatalf("trim retained consumed chunks: base = %d, want %d", w.base, 2*streamChunkSize)
	}

	// Identical positions must yield identical instructions: replay the
	// lead's history on the lagging cursor and compare.
	lead2 := &streamCursor{stream: st, pos: lag.pos}
	st.cursors = append(st.cursors, lead2)
	for i := 0; i < streamChunkSize; i++ {
		lag.Next(&a)
		lead2.Next(&b)
		if a != b {
			t.Fatalf("cursors diverged at position %d: %+v vs %+v", lag.pos-1, a, b)
		}
	}

	// Releasing every other cursor lets the lead's position gate the trim.
	for _, cur := range []*streamCursor{lag, lead2, st.cursors[2], st.cursors[3]} {
		st.release(cur)
	}
	if len(st.cursors) != 1 || st.cursors[0] != lead {
		t.Fatalf("release left wrong cursors: %d remaining", len(st.cursors))
	}
	st.trim()
	if w := st.w.Load(); w.base != 3*streamChunkSize {
		t.Fatalf("trim after release: base = %d, want %d", w.base, 3*streamChunkSize)
	}
}
