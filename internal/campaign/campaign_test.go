package campaign

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

func TestSpecJobsExpansion(t *testing.T) {
	spec := Spec{
		Workloads: []string{"2W1", "2W3"},
		Policies:  []string{"ICOUNT", "MFLUSH"},
		Seeds:     []uint64{1, 2, 3},
		Tweaks:    []Tweak{{}, {Name: "small-mshr", MSHREntries: 4}},
		Cycles:    1000, Warmup: 500,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2*3 {
		t.Fatalf("jobs = %d, want 24", len(jobs))
	}
	// Deterministic order: workload-major, then policy, then tweak,
	// then seed.
	first := jobs[0]
	if first.Workload.Name != "2W1" || first.Policy != sim.SpecICOUNT ||
		!first.Tweak.IsZero() || first.Seed != 1 {
		t.Fatalf("first job = %v", first)
	}
	if jobs[1].Seed != 2 || jobs[3].Tweak.Name != "small-mshr" {
		t.Fatalf("expansion order wrong: %v / %v", jobs[1], jobs[3])
	}
	if jobs[12].Workload.Name != "2W3" {
		t.Fatalf("workload-major order wrong: %v", jobs[12])
	}
	// Expansion is reproducible and keys are unique.
	again, _ := spec.Jobs()
	seen := make(map[string]bool)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d", i)
		}
		k := jobs[i].Key()
		if seen[k] {
			t.Fatalf("duplicate key for %v", jobs[i])
		}
		seen[k] = true
	}
}

// TestSpecJobsExpansionBounded: a spec whose cartesian product is
// absurdly large must be rejected before any allocation is sized by it
// — a hostile daemon submission (or fuzzer input) listing thousands of
// distinct FLUSH-S<n> policies and seeds would otherwise request a
// multi-gigabyte job slice and crash the process instead of getting a
// 400.
func TestSpecJobsExpansionBounded(t *testing.T) {
	policies := make([]string, 2000)
	for i := range policies {
		policies[i] = "FLUSH-S" + strconv.Itoa(i+1)
	}
	seeds := make([]uint64, 2000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	_, err := Spec{
		Workloads: []string{"2W1"}, Policies: policies, Seeds: seeds,
		Cycles: 1000,
	}.Jobs()
	if err == nil || !strings.Contains(err.Error(), "split the sweep") {
		t.Fatalf("4M-job spec error = %v, want expansion-bound rejection", err)
	}
}

func TestSpecJobsDefaults(t *testing.T) {
	jobs, err := Spec{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"},
		Cycles: 100}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Seed != 1 || !jobs[0].Tweak.IsZero() {
		t.Fatalf("defaults wrong: %v", jobs)
	}
}

func TestSpecJobsErrors(t *testing.T) {
	bad := []Spec{
		{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"}},             // no cycles
		{Policies: []string{"ICOUNT"}, Cycles: 100},                            // no workloads
		{Workloads: []string{"2W1"}, Cycles: 100},                              // no policies
		{Workloads: []string{"nope"}, Policies: []string{"ICOUNT"}, Cycles: 1}, // bad workload
		{Workloads: []string{"2W1"}, Policies: []string{"banana"}, Cycles: 1},  // bad policy
		{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"}, Cycles: 1,
			Tweaks: []Tweak{{Name: "tiny-mshr", MSHREntries: -4}}}, // negative knob
		{Workloads: []string{"2W1", "2W1"}, Policies: []string{"ICOUNT"}, Cycles: 1}, // dup workload
		{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT", "icount"},
			Cycles: 1}, // dup policy (case-folded by the parser)
		{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"},
			Seeds: []uint64{1, 2, 1}, Cycles: 1}, // dup seed
		{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"}, Cycles: 1,
			Tweaks: []Tweak{{Name: "a", BusDelay: 4}, {Name: "b", BusDelay: 4}}}, // dup tweak content
	}
	for i, s := range bad {
		if _, err := s.Jobs(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

// TestTweakBounds: every tweak knob is admitted at its upper bound and
// rejected one above it, with a message naming the field and the bound.
// The two hostile repros (an L2 too large to allocate, an MSHR file that
// exhausts host memory) fail at expansion, before anything simulates.
func TestTweakBounds(t *testing.T) {
	spec := func(tw Tweak) Spec {
		return Spec{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"}, Cycles: 1, Tweaks: []Tweak{tw}}
	}
	for _, tc := range []struct {
		field string
		bound int
		set   func(*Tweak, int)
	}{
		{"mshr_entries", 256, func(tw *Tweak, v int) { tw.MSHREntries = v }},
		{"l2_size_bytes", 64 << 20, func(tw *Tweak, v int) { tw.L2SizeBytes = v }},
		{"bus_delay", 1000, func(tw *Tweak, v int) { tw.BusDelay = v }},
		{"main_memory_latency", 100000, func(tw *Tweak, v int) { tw.MainMemoryLatency = v }},
		{"reg_reserve_per_thread", 320, func(tw *Tweak, v int) { tw.RegReservePerThread = &v }},
	} {
		var at, above Tweak
		tc.set(&at, tc.bound)
		tc.set(&above, tc.bound+1)
		if _, err := spec(at).Jobs(); err != nil {
			t.Errorf("%s at its bound %d: %v", tc.field, tc.bound, err)
		}
		_, err := spec(above).Jobs()
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), strconv.Itoa(tc.bound)) {
			t.Errorf("%s above its bound: err = %v, want one naming the field and %d", tc.field, err, tc.bound)
		}
	}
	for _, body := range []string{
		`{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1000,"tweaks":[{"l2_size_bytes":3377699720527872}]}`,
		`{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1000,"tweaks":[{"mshr_entries":4000000000000}]}`,
		`{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1000,"tweaks":[{"reg_reserve_per_thread":321}]}`,
	} {
		s, err := ReadSpec(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Jobs(); err == nil || !strings.Contains(err.Error(), "exceeds the bound") {
			t.Errorf("%s: err = %v, want a bound rejection", body, err)
		}
	}
	// An explicit zero reservation is a machine point of its own, not
	// a duplicate of the baseline; a negative one is no machine.
	for body, wantErr := range map[string]string{
		`{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1000,"tweaks":[{},{"reg_reserve_per_thread":0}]}`: "",
		`{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1000,"tweaks":[{"reg_reserve_per_thread":-1}]}`:   "negative reg_reserve_per_thread",
	} {
		s, err := ReadSpec(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := s.Jobs()
		switch {
		case wantErr == "" && (err != nil || len(jobs) != 2):
			t.Errorf("%s: %d jobs, err = %v, want 2 jobs", body, len(jobs), err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", body, err, wantErr)
		}
	}
}

// TestBudgetBounds: a spec's cycles and warmup are bounded at 2^30 each
// and its interval samples per job at 2^16; a spec at a bound expands, a
// spec past one fails naming the field and the bound.
func TestBudgetBounds(t *testing.T) {
	for _, tc := range []struct {
		field     string
		bound     uint64
		at, above Spec
	}{
		{"cycles", 1 << 30, Spec{Cycles: 1 << 30}, Spec{Cycles: 1<<30 + 1}},
		{"warmup", 1 << 30, Spec{Cycles: 1, Warmup: 1 << 30}, Spec{Cycles: 1, Warmup: 1<<30 + 1}},
		{"cycles/interval", 1 << 16, Spec{Cycles: 1 << 16, Interval: 1}, Spec{Cycles: 1<<16 + 1, Interval: 1}},
		{"cycles/interval", 1 << 16, Spec{Cycles: 1 << 30, Interval: 1 << 14}, Spec{Cycles: 1 << 30, Interval: 1<<14 - 1}},
	} {
		for _, s := range []*Spec{&tc.at, &tc.above} {
			s.Workloads, s.Policies = []string{"2W1"}, []string{"ICOUNT"}
		}
		if _, err := tc.at.Jobs(); err != nil {
			t.Errorf("%s at its bound %d: %v", tc.field, tc.bound, err)
		}
		_, err := tc.above.Jobs()
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), strconv.FormatUint(tc.bound, 10)) {
			t.Errorf("%s above its bound: err = %v, want one naming the field and %d", tc.field, err, tc.bound)
		}
	}
}

func TestJobKeyContent(t *testing.T) {
	base := Job{Policy: sim.SpecMFLUSH, Seed: 1, Cycles: 100, Warmup: 50}
	renamed := base
	renamed.Tweak.Name = "alias"
	if base.Key() != renamed.Key() {
		t.Fatal("renaming a tweak must not invalidate stored results")
	}
	for _, mutate := range []func(*Job){
		func(j *Job) { j.Seed = 2 },
		func(j *Job) { j.Cycles = 200 },
		func(j *Job) { j.Warmup = 60 },
		func(j *Job) { j.Policy = sim.SpecICOUNT },
		func(j *Job) { j.Tweak.MSHREntries = 8 },
		func(j *Job) { j.Tweak.MainMemoryLatency = 400 },
		func(j *Job) { j.Tweak.RegReservePerThread = intp(0) },
	} {
		j := base
		mutate(&j)
		if j.Key() == base.Key() {
			t.Errorf("parameter change did not change key: %v", j)
		}
	}
	// A nil and a positive reservation keep the keys stored before the
	// field became a pointer.
	reserve48 := base
	reserve48.Tweak.RegReservePerThread = intp(48)
	for _, c := range []struct {
		j    Job
		want string
	}{
		{base, "4a8a35f66e8a41457453e721b0dc01fa"},
		{reserve48, "57a3f8160436a59e8753b714f408a947"},
	} {
		if got := c.j.Key(); got != c.want {
			t.Errorf("key of %v = %s, want the frozen %s", c.j, got, c.want)
		}
	}
}

func intp(v int) *int { return &v }

func TestTweakApplyAndLabel(t *testing.T) {
	tw := Tweak{MSHREntries: 8, L2SizeBytes: 3072 * 256, BusDelay: 4,
		MainMemoryLatency: 400, RegReservePerThread: intp(48)}
	cfg := config.Default(1)
	j := Job{Tweak: tw, Cycles: 10}
	opt := j.Options()
	if opt.Tweak == nil {
		t.Fatal("non-zero tweak produced no Options.Tweak")
	}
	opt.Tweak(&cfg)
	if cfg.Core.MSHREntries != 8 || cfg.Mem.L2.SizeBytes != 3072*256 ||
		cfg.Mem.BusDelay != 4 || cfg.Mem.MainMemoryLatency != 400 ||
		cfg.Core.RegReservePerThread != 48 {
		t.Fatalf("apply missed fields: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tweaked config invalid: %v", err)
	}
	// An explicit zero reservation applies: a fully shared pool.
	cfg = config.Default(1)
	(Job{Tweak: Tweak{RegReservePerThread: intp(0)}, Cycles: 10}).Options().Tweak(&cfg)
	if cfg.Core.RegReservePerThread != 0 {
		t.Fatalf("explicit zero reservation applied as %d", cfg.Core.RegReservePerThread)
	}
	if (Tweak{}).Label() != "baseline" {
		t.Fatal("zero tweak label")
	}
	if (Tweak{Name: "x"}).Label() != "x" {
		t.Fatal("named tweak label")
	}
	if lbl := (Tweak{BusDelay: 4}).Label(); !strings.Contains(lbl, "bus=4") {
		t.Fatalf("anonymous tweak label = %q", lbl)
	}
	if (Job{Policy: sim.SpecICOUNT, Cycles: 10}).Options().Tweak != nil {
		t.Fatal("zero tweak should leave Options.Tweak nil")
	}
}

func TestReadSpec(t *testing.T) {
	spec, err := ReadSpec(strings.NewReader(`{
		"workloads": ["2W1"], "policies": ["MFLUSH", "FLUSH-S30"],
		"seeds": [1, 2], "cycles": 5000, "warmup": 2000,
		"tweaks": [{"name": "slow-mem", "main_memory_latency": 500}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Policies) != 2 || spec.Tweaks[0].MainMemoryLatency != 500 {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := ReadSpec(strings.NewReader(`{"workloadz": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ReadSpec(strings.NewReader(`{`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}
