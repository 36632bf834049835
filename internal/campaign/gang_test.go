package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

// gangSpec is a sweep whose expansion contains gangable variety: two
// workloads and two seeds (four gang keys), three policies each.
var gangSpec = Spec{
	Workloads: []string{"2W1", "2W3"},
	Policies:  []string{"ICOUNT", "FLUSH-S30", "MFLUSH"},
	Seeds:     []uint64{1, 2},
	Cycles:    4000,
	Warmup:    1000,
}

// TestGangGroupsShape pins the grouping algorithm: greedy in input
// order, sealed at width, leftovers in first-opened order, exact
// partition, single gang key per group.
func TestGangGroupsShape(t *testing.T) {
	jobs, err := gangSpec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Expansion order is workload-major then policy then seed, so
	// consecutive jobs alternate seeds (distinct gang keys) — grouping
	// must stitch same-key jobs back together across the alternation.
	groups := GangGroups(jobs, 3)
	seen := make(map[int]bool)
	for _, g := range groups {
		if len(g) == 0 || len(g) > 3 {
			t.Fatalf("group size %d outside [1,3]", len(g))
		}
		key := jobs[g[0]].GangKey()
		for _, i := range g {
			if seen[i] {
				t.Fatalf("job %d appears in two groups", i)
			}
			seen[i] = true
			if jobs[i].GangKey() != key {
				t.Fatalf("group mixes gang keys:\n %s\n %s", key, jobs[i].GangKey())
			}
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("grouping covered %d of %d jobs", len(seen), len(jobs))
	}
	// 12 jobs, 4 gang keys × 3 members each, width 3: four full gangs.
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4 full gangs", len(groups))
	}

	// Width 1 and the degenerate widths mean no ganging: singletons in
	// input order.
	for _, width := range []int{1, 0, -5} {
		singles := GangGroups(jobs, width)
		if len(singles) != len(jobs) {
			t.Fatalf("width %d: got %d groups, want %d singletons", width, len(singles), len(jobs))
		}
		for i, g := range singles {
			if len(g) != 1 || g[0] != i {
				t.Fatalf("width %d: group %d = %v, want [%d]", width, i, g, i)
			}
		}
	}
}

// TestSchedulerGangBitIdentity runs the same campaign solo and ganged
// into separate stores and requires byte-identical records — gang
// batching must be invisible in everything the campaign layer persists.
func TestSchedulerGangBitIdentity(t *testing.T) {
	jobs, err := gangSpec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string, sched *Scheduler) []Record {
		store, err := OpenStore(filepath.Join(dir, name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		recs, err := sched.Run(context.Background(), jobs, store)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return recs
	}
	soloRecs := run("solo", &Scheduler{Workers: 2})
	gangRecs := run("gang", &Scheduler{Workers: 2, GangWidth: 4})
	for i := range jobs {
		solo, _ := json.Marshal(soloRecs[i])
		gang, _ := json.Marshal(gangRecs[i])
		if string(solo) != string(gang) {
			t.Errorf("%s: ganged record differs from solo\n gang: %s\n solo: %s", jobs[i], gang, solo)
		}
	}
}

// TestSchedulerGangRunnerBatches pins the scheduler's single dispatch
// path across widths: below 2 every job goes to Runner and GangRunner is
// never called; at width 2 an injected GangRunner sees groups of
// compatible jobs (not width-1 trickle) and the singleton leftover goes
// to Runner. Progress reports once per job at every width.
func TestSchedulerGangRunnerBatches(t *testing.T) {
	spec := gangSpec
	spec.Workloads = []string{"2W1"}
	spec.Seeds = []uint64{1}
	jobs, err := spec.Jobs() // 3 jobs, one gang key
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		width   int
		batches []int
		solo    int
	}{
		{width: 0, solo: 3},
		{width: 1, solo: 3},
		{width: 2, batches: []int{2}, solo: 1},
	} {
		var mu sync.Mutex
		var batchSizes []int
		var soloCalls, reports int
		sched := &Scheduler{
			Workers:   1,
			GangWidth: tc.width,
			Runner: func(o sim.Options) (*sim.Result, error) {
				mu.Lock()
				soloCalls++
				mu.Unlock()
				return sim.Run(o)
			},
			GangRunner: func(opts []sim.Options) ([]*sim.Result, error) {
				mu.Lock()
				batchSizes = append(batchSizes, len(opts))
				mu.Unlock()
				return sim.RunGang(opts)
			},
			OnProgress: func(Progress) { reports++ },
		}
		if _, err := sched.Run(context.Background(), jobs, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batchSizes, tc.batches) || soloCalls != tc.solo {
			t.Errorf("width %d over 3 compatible jobs: gang batches %v + %d solo, want %v + %d",
				tc.width, batchSizes, soloCalls, tc.batches, tc.solo)
		}
		if reports != len(jobs) {
			t.Errorf("width %d: got %d progress reports, want one per job (%d)", tc.width, reports, len(jobs))
		}
	}
}

// TestSchedulerGangResume proves gang batching composes with store
// resume: a partially complete store is not re-run, and the remaining
// jobs gang among themselves.
func TestSchedulerGangResume(t *testing.T) {
	jobs, err := gangSpec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Complete a prefix solo, then finish the campaign ganged.
	if _, err := (&Scheduler{Workers: 1}).Run(context.Background(), jobs[:5], store); err != nil {
		t.Fatal(err)
	}
	var cached, ran int
	sched := &Scheduler{
		Workers:   2,
		GangWidth: 3,
		OnProgress: func(p Progress) {
			if p.Cached {
				cached++
			} else {
				ran++
			}
		},
	}
	recs, err := sched.Run(context.Background(), jobs, store)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 5 || ran != len(jobs)-5 {
		t.Errorf("resume ran %d jobs and reused %d, want %d and 5", ran, cached, len(jobs)-5)
	}
	for i, j := range jobs {
		if recs[i].Key != j.Key() {
			t.Errorf("record %d keyed %s, want %s", i, recs[i].Key, j.Key())
		}
	}
}

// FuzzGangGrouping drives GangGroups with arbitrary job mixes and
// widths. Properties: it never panics, never mixes incompatible jobs in
// one group, partitions the input exactly (every index once, group
// sizes within [1, width]), is deterministic, and leaves the jobs —
// and therefore their content-hash keys — untouched.
func FuzzGangGrouping(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	f.Add([]byte{255, 0, 255, 0}, 2)
	f.Add([]byte{}, 3)
	f.Add([]byte{9, 9, 9, 9, 9, 9}, 1)
	f.Add([]byte{1, 2}, -7)
	f.Fuzz(func(t *testing.T, data []byte, width int) {
		if len(data) > 256 {
			data = data[:256] // bound the job list, not the coverage
		}
		spec, err := (Spec{
			Workloads: []string{"2W1", "4W2"},
			Policies:  []string{"ICOUNT", "MFLUSH", "FLUSH-S30"},
			Seeds:     []uint64{1, 2},
			Cycles:    1000,
			Warmup:    100,
		}).Jobs()
		if err != nil {
			t.Fatal(err)
		}
		// Each fuzz byte picks one job variant; the byte stream is the
		// (arbitrary) campaign ordering and mix the grouper must handle.
		jobs := make([]Job, len(data))
		for i, b := range data {
			j := spec[int(b)%len(spec)]
			// High bits perturb the window/interval so the fuzzer also
			// builds mixes that must NOT gang together.
			if b&0x40 != 0 {
				j.Cycles *= 2
			}
			if b&0x80 != 0 {
				j.Interval = 250
			}
			jobs[i] = j
		}
		keysBefore := make([]string, len(jobs))
		for i, j := range jobs {
			keysBefore[i] = j.Key()
		}

		groups := GangGroups(jobs, width)

		maxSize := width
		if width < 2 {
			maxSize = 1
		}
		seen := make(map[int]bool, len(jobs))
		for _, g := range groups {
			if len(g) == 0 || len(g) > maxSize {
				t.Fatalf("group size %d outside [1,%d]", len(g), maxSize)
			}
			key := jobs[g[0]].GangKey()
			for _, i := range g {
				if i < 0 || i >= len(jobs) {
					t.Fatalf("group index %d out of range", i)
				}
				if seen[i] {
					t.Fatalf("job index %d appears twice", i)
				}
				seen[i] = true
				if jobs[i].GangKey() != key {
					t.Fatalf("group mixes gang keys %q and %q", key, jobs[i].GangKey())
				}
			}
		}
		if len(seen) != len(jobs) {
			t.Fatalf("grouping covered %d of %d jobs", len(seen), len(jobs))
		}
		for i, j := range jobs {
			if j.Key() != keysBefore[i] {
				t.Fatalf("grouping changed job %d key %s -> %s", i, keysBefore[i], j.Key())
			}
		}
		if again := GangGroups(jobs, width); !reflect.DeepEqual(groups, again) {
			t.Fatalf("grouping is nondeterministic:\n first: %v\nsecond: %v", groups, again)
		}
	})
}
