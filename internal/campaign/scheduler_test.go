package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeResult builds a minimal well-formed Result (Summary needs a
// non-nil latency histogram) so scheduler tests avoid the simulator.
func fakeResult(o sim.Options) *sim.Result {
	return &sim.Result{Workload: o.Workload.Name, Policy: o.Policy.String(),
		Cycles: o.Cycles, IPC: float64(o.Seed), HitLatency: stats.NewHistogram(8)}
}

func TestSchedulerOrderProgressAndInjection(t *testing.T) {
	spec := Spec{Workloads: []string{"2W1", "2W2"}, Policies: []string{"ICOUNT"},
		Seeds: []uint64{1, 2}, Cycles: 1000}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var calls int64
	var progress []Progress
	sched := &Scheduler{
		Workers: 2,
		Runner: func(o sim.Options) (*sim.Result, error) {
			atomic.AddInt64(&calls, 1)
			return fakeResult(o), nil
		},
		OnProgress: func(p Progress) { progress = append(progress, p) },
	}
	recs, err := sched.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || len(recs) != 4 {
		t.Fatalf("calls = %d, records = %d", calls, len(recs))
	}
	// Records come back in job order regardless of completion order.
	for i, j := range jobs {
		if recs[i].Workload != j.Workload.Name || recs[i].Seed != j.Seed {
			t.Fatalf("record %d = %+v, want job %v", i, recs[i], j)
		}
		if recs[i].Key != j.Key() {
			t.Fatalf("record %d key mismatch", i)
		}
	}
	if len(progress) != 4 || progress[3].Done != 4 || progress[3].Total != 4 {
		t.Fatalf("progress = %+v", progress)
	}
}

// TestResumeRelabelsRenamedTweak: job keys hash tweak content, so a
// spec rename reuses stored results — but the cached records must adopt
// the current label or aggregation would split one cell in two.
func TestResumeRelabelsRenamedTweak(t *testing.T) {
	mkJobs := func(name string, seeds []uint64) []Job {
		jobs, err := Spec{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"},
			Seeds: seeds, Cycles: 1000,
			Tweaks: []Tweak{{Name: name, MSHREntries: 4}}}.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := &Scheduler{Runner: func(o sim.Options) (*sim.Result, error) {
		return fakeResult(o), nil
	}}
	if _, err := fake.Run(context.Background(), mkJobs("old-name", []uint64{1, 2}), store); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Renamed tweak, one extra seed: 2 cached jobs + 1 fresh.
	recs, err := fake.Run(context.Background(), mkJobs("new-name", []uint64{1, 2, 3}), store)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Tweak != "new-name" {
			t.Errorf("record %d tweak = %q, want the renamed label", i, r.Tweak)
		}
	}
	cells := Aggregate(recs)
	if len(cells) != 1 || cells[0].Seeds != 3 || cells[0].Tweak != "new-name" {
		t.Fatalf("rename split the cell: %+v", cells)
	}
}

func TestSchedulerReportsJobError(t *testing.T) {
	jobs, _ := Spec{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"},
		Seeds: []uint64{1, 2}, Cycles: 100}.Jobs()
	var calls atomic.Int64
	sched := &Scheduler{Runner: func(o sim.Options) (*sim.Result, error) {
		calls.Add(1)
		if o.Seed == 2 {
			return nil, fmt.Errorf("boom")
		}
		return fakeResult(o), nil
	}}
	_, err := sched.Run(context.Background(), jobs, nil)
	if err == nil || !strings.Contains(err.Error(), "seed=2") ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// A context cancelled before Run starts fails the campaign with the
	// context's own error, and nothing simulates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls.Store(0)
	if _, err := sched.Run(ctx, jobs, nil); !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Fatalf("pre-cancelled run: err = %v after %d simulations", err, calls.Load())
	}
}

// TestSchedulerIgnoresGangWidth: GangWidth and GangRunner change
// nothing. A campaign run with them set never calls the gang runner and
// returns the records and store lines of a plain run.
func TestSchedulerIgnoresGangWidth(t *testing.T) {
	jobs, err := Spec{
		Workloads: []string{"2W1", "2W3"},
		Policies:  []string{"ICOUNT", "FLUSH-S30", "MFLUSH"},
		Seeds:     []uint64{1, 2},
		Cycles:    4000,
		Warmup:    1000,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string, sched *Scheduler) (records, lines []string) {
		path := filepath.Join(dir, name+".jsonl")
		store, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := sched.Run(context.Background(), jobs, store)
		store.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range recs {
			out, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, string(out))
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Two workers append in completion order, so compare the lines
		// as a set.
		lines = strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		slices.Sort(lines)
		return records, lines
	}
	plainRecs, plainLines := run("plain", &Scheduler{Workers: 2})
	gangRecs, gangLines := run("gang", &Scheduler{
		Workers:   2,
		GangWidth: 4,
		GangRunner: func([]sim.Options) ([]*sim.Result, error) {
			t.Error("GangRunner called")
			return nil, fmt.Errorf("gang runner called")
		},
	})
	if !slices.Equal(plainRecs, gangRecs) {
		t.Errorf("records differ with GangWidth 4:\n%s\nvs\n%s", gangRecs, plainRecs)
	}
	if len(plainLines) != len(jobs) || !slices.Equal(plainLines, gangLines) {
		t.Errorf("store lines differ with GangWidth 4:\n%s\nvs\n%s", gangLines, plainLines)
	}
}
