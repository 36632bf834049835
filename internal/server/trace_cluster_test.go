package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/tracecli"
)

// writeTrace synthesises a small scenario trace file and returns its
// path. The recipes include miss-latency overrides so the far-memory
// replay path is exercised end-to-end, not just in unit tests.
func writeTrace(t *testing.T, dir, name string, cfg tracecli.Config) string {
	t.Helper()
	s, err := tracecli.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := tracecli.WriteFile(path, s, "binary"); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClusterTraceAxisShardsAndCaches is the trace-workload acceptance
// test: a campaign whose workload axis mixes trace: entries with a
// synthetic workload runs through the daemon and a real-simulator fleet
// worker, lands records byte-identical to solo scheduler execution,
// gives every distinct trace its own job key, and serves a re-submission
// entirely from the content-addressed cache.
func TestClusterTraceAxisShardsAndCaches(t *testing.T) {
	dir := t.TempDir()
	pathA := writeTrace(t, dir, "a.trace", tracecli.Config{
		Mode: "ramp", Benches: []string{"mcf"}, N: 30000, Seed: 3,
		LatLo: 600, LatHi: 2500, TailFrac: 0.1,
	})
	pathB := writeTrace(t, dir, "b.trace", tracecli.Config{
		Mode: "mix", Benches: []string{"gzip", "art"}, N: 30000, Seed: 4,
	})
	spec := fmt.Sprintf(`{"workloads":[%q,%q,"2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1],"cycles":1500,"warmup":500}`,
		"trace:"+pathA, "trace:"+pathB)

	// Reference: the same jobs simulated solo through the plain scheduler
	// with the real simulator.
	parsed, err := campaign.ReadSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := parsed.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("spec expanded to %d jobs, want 6", len(jobs))
	}
	keys := make(map[string]bool)
	for _, j := range jobs {
		keys[j.Key()] = true
	}
	if len(keys) != 6 {
		t.Fatalf("6 jobs share keys: %d distinct", len(keys))
	}
	refStore, err := campaign.OpenStore(filepath.Join(t.TempDir(), "ref.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	refRecs, err := (&campaign.Scheduler{Workers: 2}).Run(context.Background(), jobs, refStore)
	if err != nil {
		t.Fatal(err)
	}
	wantRec := make(map[string]string, len(refRecs))
	for _, rec := range refRecs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		wantRec[rec.Key] = string(b)
	}

	// Fleet execution: daemon plus two real-simulator workers (the
	// workers share the daemon's filesystem, which the trace: axis
	// requires — refs carry paths, not content).
	store, err := campaign.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord := openTestCoordinator(t, 10*time.Second)
	srv := New(Config{Store: store, Runner: localRunnerMustNotRun(t), Cluster: coord})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var fleetRuns atomic.Int64
	counting := func(o sim.Options) (*sim.Result, error) {
		fleetRuns.Add(1)
		return sim.Run(o)
	}
	for _, name := range []string{"wa", "wb"} {
		w := &cluster.Worker{
			Base: ts.URL, Name: name, Capacity: 2,
			Runner: counting, LeaseWait: 50 * time.Millisecond,
		}
		wctx, wcancel := context.WithCancel(context.Background())
		t.Cleanup(wcancel)
		go func() {
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	waitFleet(t, coord, 2)

	sub := postSpec(t, ts, spec)
	if state := waitState(t, srv, sub.ID); state != StateDone {
		t.Fatalf("trace-axis campaign state %q", state)
	}
	if n := fleetRuns.Load(); n != 6 {
		t.Fatalf("fleet simulated %d jobs for 6 distinct jobs", n)
	}
	for _, j := range jobs {
		rec, ok := store.Get(j.Key())
		if !ok {
			t.Fatalf("store is missing fleet-executed record %s", j)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != wantRec[j.Key()] {
			t.Errorf("%s: fleet record differs from solo\nfleet: %s\n solo: %s", j, b, wantRec[j.Key()])
		}
	}
	// Trace records carry the trace: name, so aggregates group by trace.
	for _, j := range jobs[:4] {
		rec, _ := store.Get(j.Key())
		if !strings.HasPrefix(rec.Workload, "trace:") {
			t.Errorf("trace record workload = %q, want a trace: name", rec.Workload)
		}
	}

	// Re-submitting the identical spec is a pure cache hit: the daemon
	// serves every job from the store — no new simulation anywhere.
	var firstResult string
	_, body := fetch(t, ts, sub.ResultURL+"?format=json")
	firstResult = string(body)
	sub2 := postSpec(t, ts, spec)
	if state := waitState(t, srv, sub2.ID); state != StateDone {
		t.Fatalf("re-submission state %q", state)
	}
	if n := fleetRuns.Load(); n != 6 {
		t.Fatalf("re-submission re-simulated: %d total runs, want 6", n)
	}
	_, body = fetch(t, ts, sub2.ResultURL+"?format=json")
	if string(body) != firstResult {
		t.Error("cached re-submission aggregate differs from the original")
	}
}
