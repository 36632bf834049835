package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// gangOptions builds a policy-sweep gang: one workload and seed, the
// paper's four policies — the shape campaign batching produces, where
// every member synthesises the same instruction streams.
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

// TestRunGangSameSeedBitIdentity covers a policy sweep whose members all
// synthesise the same instruction streams (one workload and seed)
// against solo Run, member by member.
func TestRunGangSameSeedBitIdentity(t *testing.T) {
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

// TestRunGangBuildsMembersInTurn: RunGang builds member m+1's machine
// (its Tweak runs at build) only after member m has taken its last
// interval sample, so a gang never holds two machines at once.
func TestRunGangBuildsMembersInTurn(t *testing.T) {
	opts := gangOptions(t, "2W1", 3, 1000, 2000)
	var log []string
	for m := range opts {
		opts[m].Interval = 500
		opts[m].Tweak = func(*config.Config) { log = append(log, fmt.Sprintf("tweak %d", m)) }
		opts[m].OnSample = func(SamplePoint) { log = append(log, fmt.Sprintf("sample %d", m)) }
	}
	if _, err := RunGang(opts); err != nil {
		t.Fatal(err)
	}
	for m := 0; m+1 < len(opts); m++ {
		lastSample := -1
		for i, e := range log {
			if e == fmt.Sprintf("sample %d", m) {
				lastSample = i
			}
		}
		if lastSample < 0 || slices.Index(log, fmt.Sprintf("tweak %d", m+1)) < lastSample {
			t.Fatalf("member %d built before member %d finished sampling; call log: %v", m+1, m, log)
		}
	}
}

// TestOpenGangMatchesRun: a GangSession stepped the way the benchmark's
// traced gang runner drives it — warm-up, reset, the measured window in
// uneven chunks, Finish — returns each member's Run result bit for bit.
func TestOpenGangMatchesRun(t *testing.T) {
	const warmup = 4000
	opts := gangOptions(t, "2W3", 5, warmup, 12000)
	g, err := OpenGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	g.Step(warmup)
	g.ResetMeasurement()
	g.Step(5000)
	g.Step(7000)
	results, err := g.Finish()
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

// TestGangMemberPermutation: member order is immaterial — running the
// same variant set in permuted orders yields each variant the same
// bytes, so gang grouping upstream may order jobs freely.
func TestGangMemberPermutation(t *testing.T) {
	opts := gangOptions(t, "2W1", 4, 1000, 6000)
	base, err := RunGang(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		shuffled := make([]Options, len(opts))
		for i, j := range perm {
			shuffled[i] = opts[j]
		}
		results, err := RunGang(shuffled)
		if err != nil {
			t.Fatalf("permutation %v: %v", perm, err)
		}
		for i, j := range perm {
			if g, w := fingerprint(results[i]), fingerprint(base[j]); g != w {
				t.Errorf("permutation %v: member %d (policy %s) diverged from unpermuted run\n got: %s\nwant: %s",
					perm, i, shuffled[i].Policy, g, w)
			}
		}
	}
}

// TestGangLifecycleErrors pins the gang's error surface: empty gangs,
// mixed windows, a failing member, finishing an empty window, double
// finishes, stepping a closed gang.
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

	bad := []Options{
		{Workload: w, Policy: SpecICOUNT, Cycles: 1000},
		{Workload: w, Policy: SpecMFLUSH, Cycles: 1000},
		{Workload: w, Policy: SpecFlushS(0), Cycles: 1000},
	}
	if res, err := RunGang(bad); err == nil || !strings.HasPrefix(err.Error(), "sim: gang member 2: ") || res != nil {
		t.Errorf("RunGang with a zero-trigger FLUSH-S member 2: results %v, err = %v; want nil results and a member-2 error", res, err)
	}

	g, err := OpenGang([]Options{
		{Workload: w, Policy: SpecICOUNT, Cycles: 1000},
		{Workload: w, Policy: SpecMFLUSH, Cycles: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Finish(); err == nil || !strings.HasPrefix(err.Error(), "sim: gang member 0: ") {
		t.Errorf("Finish with an empty window: err = %v, want a member-0 error", err)
	}
	g.Step(1000)
	if _, err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Finish(); err == nil {
		t.Error("second Finish succeeded, want error")
	}
	defer func() {
		if recover() == nil {
			t.Error("Step on a finished gang did not panic")
		}
	}()
	g.Step(1)
}
