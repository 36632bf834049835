package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// fleetCacheSpec expands to six jobs on one workload and window.
const fleetCacheSpec = `{"workloads":["2W1"],"policies":["ICOUNT","FLUSH-S30","MFLUSH"],"seeds":[1,2],"cycles":1500,"warmup":500}`

// TestFleetWorkerCacheByteIdenticalAcrossRestart: a campaign executed
// by a fleet worker running the real simulator lands in the daemon's
// content-addressed store byte-identical to local scheduler execution,
// and a daemon restarted on that store serves the re-submitted campaign
// entirely from cache — proving fleet execution changes nothing the
// cache layer can see.
func TestFleetWorkerCacheByteIdenticalAcrossRestart(t *testing.T) {
	// Reference: the same jobs simulated locally (sim.Run) through the
	// plain scheduler.
	spec, err := campaign.ReadSpec(strings.NewReader(fleetCacheSpec))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
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

	// --- Incarnation 1: daemon + fleet worker simulating for real. ---
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	store1, err := campaign.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := cluster.OpenCoordinator(cluster.Config{
		LeaseTTL: 10 * time.Second, StateDir: t.TempDir(), Persisted: store1.Synced,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Store: store1, Runner: localRunnerMustNotRun(t), Cluster: coord1})
	ts1 := httptest.NewServer(srv1)

	var mu sync.Mutex
	runs := map[string]int{}
	w := &cluster.Worker{
		Base: ts1.URL, Name: "fleet-worker", Capacity: 2,
		Runner: func(o sim.Options) (*sim.Result, error) {
			mu.Lock()
			runs[fmt.Sprintf("%s/%d", o.Policy, o.Seed)]++
			mu.Unlock()
			return sim.Run(o)
		},
		LeaseWait: 50 * time.Millisecond,
	}
	wctx, wcancel := context.WithCancel(context.Background())
	wexited := make(chan struct{})
	go func() {
		defer close(wexited)
		if err := w.Run(wctx); err != nil {
			t.Errorf("fleet worker: %v", err)
		}
	}()
	waitFleet(t, coord1, 1)

	sub := postSpec(t, ts1, fleetCacheSpec)
	if state := waitState(t, srv1, sub.ID); state != StateDone {
		t.Fatalf("fleet-executed campaign state %q", state)
	}
	want := map[string]string{}
	for _, format := range []string{"json", "csv", "table", "rows"} {
		_, body := fetch(t, ts1, sub.ResultURL+"?format="+format)
		want[format] = string(body)
	}

	mu.Lock()
	if len(runs) != len(jobs) {
		t.Errorf("worker simulated %d distinct jobs, want %d: %v", len(runs), len(jobs), runs)
	}
	for job, n := range runs {
		if n != 1 {
			t.Errorf("worker simulated %s %d times, want once", job, n)
		}
	}
	mu.Unlock()
	for _, j := range jobs {
		rec, ok := store1.Get(j.Key())
		if !ok {
			t.Fatalf("store is missing fleet-executed record %s", j)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != wantRec[j.Key()] {
			t.Errorf("%s: fleet-executed record differs from local\n fleet: %s\n local: %s", j, b, wantRec[j.Key()])
		}
	}

	// Graceful shutdown: worker drains, daemon closes cleanly.
	wcancel()
	<-wexited
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv1.Drain(drainCtx)
	cancelDrain()
	ts1.Close()
	coord1.Close()
	store1.Close()

	// --- Incarnation 2: restart on the same store, no fleet. The
	// re-submitted campaign must be served entirely from the cache the
	// fleet worker filled — no simulation anywhere. ---
	store2, err := campaign.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != len(jobs) {
		t.Fatalf("restarted store holds %d records, want %d", store2.Len(), len(jobs))
	}
	srv2 := New(Config{Store: store2, Runner: localRunnerMustNotRun(t)})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	sub2 := postSpec(t, ts2, fleetCacheSpec)
	if state := waitState(t, srv2, sub2.ID); state != StateDone {
		t.Fatalf("cached re-submission state %q", state)
	}
	for format, ref := range want {
		_, body := fetch(t, ts2, sub2.ResultURL+"?format="+format)
		if string(body) != ref {
			t.Errorf("%s aggregate differs across restart:\n%s\nvs\n%s", format, body, ref)
		}
	}
}
