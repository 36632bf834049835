package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// mustUnmarshal decodes JSON or fails the test.
func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
}

// clusterSpec expands to 8 jobs — enough to shard meaningfully across
// three workers while staying fast under -race.
const clusterSpec = `{"workloads":["2W1","2W3"],"policies":["ICOUNT","MFLUSH"],"seeds":[1,2],"cycles":1000}`

// refAggregates runs spec in a plain single-process daemon and returns
// its aggregate bytes per format plus the records by key — the golden
// output every fleet topology must reproduce byte-for-byte.
func refAggregates(t *testing.T, spec string) (map[string]string, map[string]campaign.Record) {
	t.Helper()
	store, err := campaign.OpenStore(filepath.Join(t.TempDir(), "ref.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := New(Config{Store: store, Runner: simtest.New().Run})
	id := submit(t, s, spec)
	if state := waitState(t, s, id); state != StateDone {
		t.Fatalf("reference run state %q", state)
	}
	out := make(map[string]string)
	for _, format := range []string{"json", "csv", "table", "rows"} {
		req := httptest.NewRequest("GET", "/v1/campaigns/"+id+"/result?format="+format, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		out[format] = rec.Body.String()
	}
	recs := make(map[string]campaign.Record)
	for _, key := range store.Keys() {
		r, _ := store.Get(key)
		recs[key] = r
	}
	s.Drain(context.Background())
	return out, recs
}

// severableTransport is an http.RoundTripper that can be cut off, so a
// test can model a machine death (kill -9, network partition): every
// call fails instantly, heartbeats included — unlike a context cancel,
// which models SIGTERM and drains gracefully.
type severableTransport struct {
	severed atomic.Bool
	base    http.RoundTripper
}

// RoundTrip forwards until severed, then fails everything.
func (s *severableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s.severed.Load() {
		return nil, errors.New("worker machine is dead")
	}
	return s.base.RoundTrip(r)
}

// testWorker is one in-process fleet worker with both ways to die.
type testWorker struct {
	// drain asks for a graceful SIGTERM-style shutdown: in-flight
	// simulations finish, post, then the worker deregisters.
	drain func()
	// kill models a machine death: all network activity stops at once,
	// so the coordinator must reap the worker's leases after the TTL.
	kill func()
	// exited closes when Run returns.
	exited chan struct{}
}

// startTestWorker runs an in-process fleet worker against base. The
// cleanup closes it down even if the test killed it.
func startTestWorker(t *testing.T, base, name string, r *simtest.Runner, capacity int) *testWorker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	transport := &severableTransport{base: http.DefaultTransport}
	w := &cluster.Worker{
		Base: base, Name: name, Capacity: capacity,
		Runner: r.Run, LeaseWait: 50 * time.Millisecond,
		Client: &http.Client{Transport: transport},
	}
	tw := &testWorker{
		drain:  cancel,
		kill:   func() { transport.severed.Store(true); cancel() },
		exited: make(chan struct{}),
	}
	go func() {
		defer close(tw.exited)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	t.Cleanup(cancel)
	return tw
}

// waitFleet polls until n workers are registered.
func waitFleet(t *testing.T, coord *cluster.Coordinator, n int) {
	t.Helper()
	simtest.WaitFor(t, 10*time.Second, func() bool { return coord.LiveWorkers() == n },
		"fleet never reached %d workers (have %d)", n, func() any { return coord.LiveWorkers() })
}

// localRunnerMustNotRun fails the test if the daemon ever simulates
// locally — used when every job must have gone to the fleet.
func localRunnerMustNotRun(t *testing.T) func(sim.Options) (*sim.Result, error) {
	return func(o sim.Options) (*sim.Result, error) {
		t.Errorf("job %s/%s simulated locally, want fleet", o.Workload.Name, o.Policy)
		return simtest.New().Run(o)
	}
}

// TestClusterShardsAcrossThreeWorkersByteIdentical is the acceptance
// test: a campaign sharded across a 3-worker fleet produces aggregates
// byte-identical to a single-process run, with every job simulated
// exactly once fleet-wide and every record landing in the daemon's
// store.
func TestClusterShardsAcrossThreeWorkersByteIdentical(t *testing.T) {
	want, wantRecs := refAggregates(t, clusterSpec)

	store, err := campaign.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord := openTestCoordinator(t, 5*time.Second)
	s := New(Config{Store: store, Runner: localRunnerMustNotRun(t), Cluster: coord})
	ts := httptest.NewServer(s)
	defer ts.Close()

	runners := []*simtest.Runner{simtest.New(), simtest.New(), simtest.New()}
	for i, r := range runners {
		startTestWorker(t, ts.URL, string(rune('a'+i)), r, 2)
	}
	waitFleet(t, coord, 3)

	sub := postSpec(t, ts, clusterSpec)
	waitDone(t, ts, sub.StatusURL, 30*time.Second, "cluster campaign")

	// Exactly once fleet-wide: 8 distinct jobs, 8 simulations total, no
	// job run twice anywhere.
	total := 0
	for i, r := range runners {
		if r.Max() > 1 {
			t.Errorf("worker %d simulated a job %d times", i, r.Max())
		}
		total += r.Total()
	}
	if total != 8 {
		t.Fatalf("fleet simulated %d jobs for 8 distinct jobs", total)
	}

	// Byte-identical aggregates in every format.
	for format, ref := range want {
		_, body := fetch(t, ts, sub.ResultURL+"?format="+format)
		if string(body) != ref {
			t.Errorf("%s aggregate differs from single-process run:\n%s\nvs\n%s", format, body, ref)
		}
	}

	// The store holds exactly the reference records, byte-for-byte
	// (worker-computed records are indistinguishable from local ones).
	if store.Len() != len(wantRecs) {
		t.Fatalf("store holds %d records, want %d", store.Len(), len(wantRecs))
	}
	for key, ref := range wantRecs {
		got, ok := store.Get(key)
		if !ok {
			t.Fatalf("store missing record %s", key)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("record %s differs from single-process run:\n%+v\nvs\n%+v", key, got, ref)
		}
	}

	// The fleet accounting saw all 8 completions.
	completed := uint64(0)
	for _, w := range coord.Workers() {
		completed += w.Completed
	}
	if completed != 8 {
		t.Errorf("fleet completed counter = %d, want 8", completed)
	}
}

// TestClusterWorkerKillMidCampaignExactlyOnce is the failure half of
// the acceptance test: one of three workers is killed while it holds
// leased jobs mid-campaign; the leases expire, the jobs are re-issued
// to the survivors, and the campaign completes with every job simulated
// (to completion) exactly once and aggregates byte-identical to a
// single-process run.
func TestClusterWorkerKillMidCampaignExactlyOnce(t *testing.T) {
	want, _ := refAggregates(t, clusterSpec)

	store, err := campaign.OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord := openTestCoordinator(t, 300*time.Millisecond)
	s := New(Config{Store: store, Runner: localRunnerMustNotRun(t), Cluster: coord})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The doomed worker's simulations block on a gate that only opens
	// after the campaign is over: it leases jobs, starts them, and never
	// finishes one — exactly a process that died mid-simulation.
	doomed := simtest.New()
	doomed.Gate = make(chan struct{})
	doomedWorker := startTestWorker(t, ts.URL, "doomed", doomed, 2)
	waitFleet(t, coord, 1)

	survivors := []*simtest.Runner{simtest.New(), simtest.New()}
	for i, r := range survivors {
		startTestWorker(t, ts.URL, string(rune('b'+i)), r, 2)
	}
	waitFleet(t, coord, 3)

	sub := postSpec(t, ts, clusterSpec)
	// Wait until the doomed worker provably holds work mid-campaign,
	// then kill it: its heartbeats stop, its gated simulations never
	// complete, and after the lease TTL its jobs are re-issued.
	for doomed.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	doomedWorker.kill()

	waitDone(t, ts, sub.StatusURL, 30*time.Second, "campaign after worker kill")

	// Every one of the 8 jobs ran to completion exactly once, all on the
	// survivors: their totals account for every job, neither ran any job
	// twice, and the campaign finished — so no job was lost or doubled.
	if got := survivors[0].Total() + survivors[1].Total(); got != 8 {
		t.Fatalf("survivors completed %d simulations for 8 jobs", got)
	}
	for i, r := range survivors {
		if r.Max() > 1 {
			t.Errorf("survivor %d simulated a job %d times", i, r.Max())
		}
	}
	if store.Len() != 8 {
		t.Fatalf("store holds %d records, want 8", store.Len())
	}
	// The completion went through the lease-re-issue path, and the fleet
	// metric says so.
	if coord.Requeues() == 0 {
		t.Error("worker kill produced no re-issued leases")
	}

	// And the output is still byte-for-byte the single-process output.
	for format, ref := range want {
		_, body := fetch(t, ts, sub.ResultURL+"?format="+format)
		if string(body) != ref {
			t.Errorf("%s aggregate differs after worker kill:\n%s\nvs\n%s", format, body, ref)
		}
	}

	// Let the killed worker unwind: opening the gate releases its
	// blocked simulations; their late results are duplicates the
	// coordinator discards (the store already has the survivors'
	// byte-identical records).
	close(doomed.Gate)
	select {
	case <-doomedWorker.exited:
	case <-time.After(30 * time.Second):
		t.Fatal("killed worker never unwound after its gate opened")
	}
	if store.Len() != 8 {
		t.Fatalf("late duplicate results changed the store: %d records", store.Len())
	}
}

// TestClusterFallsBackLocalWithoutWorkers: cluster mode with an empty
// fleet degrades to single-process behaviour.
func TestClusterFallsBackLocalWithoutWorkers(t *testing.T) {
	coord := openTestCoordinator(t, time.Second)
	r := simtest.New()
	s := New(Config{Store: tempStore(t), Runner: r.Run, Cluster: coord})
	id := submit(t, s, specBody)
	if state := waitState(t, s, id); state != StateDone {
		t.Fatalf("state = %q", state)
	}
	if r.Total() != 4 {
		t.Fatalf("local fallback simulated %d jobs, want 4", r.Total())
	}
}

// TestClusterFleetDeathFallsBackLocal: when the entire fleet dies with
// jobs queued and leased, the stranded jobs fall back to the local
// simulator and the campaign still completes.
func TestClusterFleetDeathFallsBackLocal(t *testing.T) {
	coord := openTestCoordinator(t, 250*time.Millisecond)
	local := simtest.New()
	s := New(Config{Store: tempStore(t), Runner: local.Run, Cluster: coord})
	ts := httptest.NewServer(s)
	defer ts.Close()

	doomed := simtest.New()
	doomed.Gate = make(chan struct{})
	worker := startTestWorker(t, ts.URL, "doomed", doomed, 2)
	waitFleet(t, coord, 1)

	sub := postSpec(t, ts, clusterSpec)
	for doomed.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	worker.kill()

	waitDone(t, ts, sub.StatusURL, 30*time.Second, "campaign after fleet death")
	if local.Total() != 8 {
		t.Fatalf("local fallback simulated %d jobs, want all 8", local.Total())
	}
	close(doomed.Gate)
	select {
	case <-worker.exited:
	case <-time.After(30 * time.Second):
		t.Fatal("killed worker never unwound after its gate opened")
	}
}

// TestWorkerDrainOutlastingLeaseTTLKeepsLeases: a SIGTERM'd worker
// whose in-flight simulation runs longer than the lease TTL must keep
// heartbeating through the drain — otherwise the coordinator reaps it
// mid-drain and re-runs its jobs elsewhere, breaking exactly-once.
func TestWorkerDrainOutlastingLeaseTTLKeepsLeases(t *testing.T) {
	coord := openTestCoordinator(t, 300*time.Millisecond)
	s := New(Config{Store: tempStore(t), Runner: localRunnerMustNotRun(t), Cluster: coord})
	ts := httptest.NewServer(s)
	defer ts.Close()

	slow := simtest.New()
	slow.Gate = make(chan struct{})
	worker := startTestWorker(t, ts.URL, "slow", slow, 1)
	waitFleet(t, coord, 1)

	sub := postSpec(t, ts, `{"workloads":["2W1"],"policies":["ICOUNT"],"seeds":[1],"cycles":1000}`)
	for slow.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	// SIGTERM the worker mid-simulation, then hold the simulation well
	// past several lease TTLs before letting it finish.
	worker.drain()
	time.Sleep(time.Second)
	close(slow.Gate)
	select {
	case <-worker.exited:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never finished draining")
	}

	waitDone(t, ts, sub.StatusURL, 10*time.Second, "campaign after slow drain")
	// The drained worker delivered its own result: nothing was reaped,
	// re-issued or simulated twice.
	if n := coord.Requeues(); n != 0 {
		t.Fatalf("slow drain lost its lease: %d requeues", n)
	}
	if slow.Total() != 1 {
		t.Fatalf("job simulated %d times", slow.Total())
	}
}

// TestWorkersEndpointsLifecycle exercises the /v1/workers HTTP surface
// directly: register, list, heartbeat-lease, deregister, and the 404
// for dropped IDs.
func TestWorkersEndpointsLifecycle(t *testing.T) {
	coord := openTestCoordinator(t, time.Minute)
	s := New(Config{Store: tempStore(t), Runner: simtest.New().Run, Cluster: coord})

	code, resp := do(t, s, "POST", "/v1/workers", `{"name":"wtest","capacity":3}`)
	if code != 201 {
		t.Fatalf("register = %d (%v)", code, resp)
	}
	id := resp["id"].(string)
	if resp["lease_ttl_ms"].(float64) != 60000 {
		t.Fatalf("lease_ttl_ms = %v", resp["lease_ttl_ms"])
	}

	code, resp = do(t, s, "GET", "/v1/workers", "")
	if code != 200 {
		t.Fatalf("list = %d", code)
	}
	workers := resp["workers"].([]any)
	if len(workers) != 1 || workers[0].(map[string]any)["name"] != "wtest" {
		t.Fatalf("fleet = %v", resp)
	}

	code, resp = do(t, s, "POST", "/v1/workers/"+id+"/lease", `{"max":2}`)
	if code != 200 {
		t.Fatalf("lease = %d (%v)", code, resp)
	}
	if jobs := resp["jobs"].([]any); len(jobs) != 0 {
		t.Fatalf("empty queue leased %v", jobs)
	}

	if code, _ = do(t, s, "DELETE", "/v1/workers/"+id, ""); code != 200 {
		t.Fatalf("deregister = %d", code)
	}
	code, resp = do(t, s, "POST", "/v1/workers/"+id+"/lease", `{"max":1}`)
	if code != 404 {
		t.Fatalf("lease after deregister = %d (%v), want 404", code, resp)
	}

	// A plain daemon (no -cluster) serves no worker endpoints at all.
	plain := New(Config{Store: tempStore(t), Runner: simtest.New().Run})
	if code, _ := do(t, plain, "POST", "/v1/workers", `{"name":"x"}`); code != 404 {
		t.Fatalf("plain daemon register = %d, want 404", code)
	}
}
