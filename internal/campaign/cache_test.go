package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simtest"
)

func testJobs(t *testing.T, seeds ...uint64) []Job {
	t.Helper()
	jobs, err := Spec{
		Workloads: []string{"2W1"},
		Policies:  []string{"ICOUNT", "MFLUSH"},
		Seeds:     seeds,
		Cycles:    1000,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// tempStore opens an empty store in the test's temporary directory,
// closed when the test ends.
func tempStore(t *testing.T) *Store {
	t.Helper()
	store, err := OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestCacheNeedsStore: a cache without a store panics at construction
// with a message that names the fix, not at its first miss.
func TestCacheNeedsStore(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "needs a store") {
			t.Fatalf("NewCache(nil, ...) panic = %q, want the needs-a-store message", msg)
		}
	}()
	NewCache(nil, simulate(simtest.New().Run))
}

// simulate adapts an options-level runner into the cache's job-level
// runner, executing each miss in process through RunJob.
func simulate(run func(sim.Options) (*sim.Result, error)) func(context.Context, Job) (Record, error) {
	return func(_ context.Context, j Job) (Record, error) {
		return RunJob(j, run)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	c := NewCache(tempStore(t), simulate(r.Run))
	jobs := testJobs(t, 1)

	const callers = 8
	var wg sync.WaitGroup
	var hits atomic.Int64
	recs := make([][]Record, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, j := range jobs {
				rec, hit, err := c.Do(context.Background(), j)
				if err != nil {
					t.Error(err)
					return
				}
				if hit {
					hits.Add(1)
				}
				recs[i] = append(recs[i], rec)
			}
		}(i)
	}
	// Let callers pile up on the first in-flight job, then release.
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(r.Gate)
	wg.Wait()

	if got := r.Max(); got != 1 {
		t.Fatalf("a job ran %d times, want exactly 1", got)
	}
	if got := r.Total(); got != len(jobs) {
		t.Fatalf("%d simulator invocations for %d distinct jobs", got, len(jobs))
	}
	want := int64(callers*len(jobs) - len(jobs))
	if hits.Load() != want {
		t.Fatalf("hits = %d, want %d", hits.Load(), want)
	}
	for i := 1; i < callers; i++ {
		for k := range recs[0] {
			if !reflect.DeepEqual(recs[i][k], recs[0][k]) {
				t.Fatalf("caller %d record %d differs: %+v vs %+v", i, k, recs[i][k], recs[0][k])
			}
		}
	}
	hitN, missN := c.Stats()
	if missN != uint64(len(jobs)) || hitN != uint64(want) {
		t.Fatalf("Stats = %d hits %d misses, want %d/%d", hitN, missN, want, len(jobs))
	}
}

func TestCachePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := simtest.New()
	c1 := NewCache(store, simulate(r1.Run))
	jobs := testJobs(t, 1, 2)
	var first []Record
	for _, j := range jobs {
		rec, hit, err := c1.Do(context.Background(), j)
		if err != nil || hit {
			t.Fatalf("cold Do: hit=%v err=%v", hit, err)
		}
		first = append(first, rec)
	}
	if c1.Len() != len(jobs) {
		t.Fatalf("Len = %d, want %d", c1.Len(), len(jobs))
	}
	store.Close()

	// A new process: fresh cache over the reopened store must serve every
	// job without a single simulator invocation.
	store2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := simtest.New()
	c2 := NewCache(store2, simulate(r2.Run))
	for i, j := range jobs {
		rec, hit, err := c2.Do(context.Background(), j)
		if err != nil || !hit {
			t.Fatalf("warm Do: hit=%v err=%v", hit, err)
		}
		if !reflect.DeepEqual(rec, first[i]) {
			t.Fatalf("restart changed record %d: %+v vs %+v", i, rec, first[i])
		}
	}
	if r2.Total() != 0 {
		t.Fatalf("restart re-simulated %d jobs", r2.Total())
	}
	if keys := store2.Keys(); len(keys) != len(jobs) {
		t.Fatalf("store index has %d keys, want %d", len(keys), len(jobs))
	}
}

// TestCacheStatsAcrossRestart pins the hit/miss accounting through a
// store-backed restart: a fresh process starts from zeroed counters
// (hits/misses are per-process observability, not store state), serves
// warm jobs as hits without simulating, and attributes each accessor —
// Do, Lookup, Contains — correctly: Contains never counts, Lookup and
// Do count every serve.
func TestCacheStatsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := simtest.New()
	c1 := NewCache(store, simulate(r1.Run))
	jobs := testJobs(t, 1, 2) // 4 jobs
	for _, j := range jobs {
		if _, _, err := c1.Do(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	// Cold process: every Do was a miss; a repeat Do and a Lookup are
	// hits; Contains counts nothing.
	if !c1.Contains(jobs[0]) {
		t.Fatal("Contains lost a computed job")
	}
	if _, _, err := c1.Do(context.Background(), jobs[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.Lookup(jobs[1]); !ok {
		t.Fatal("Lookup lost a computed job")
	}
	if hits, misses := c1.Stats(); hits != 2 || misses != uint64(len(jobs)) {
		t.Fatalf("cold process stats = %d hits / %d misses, want 2/%d", hits, misses, len(jobs))
	}
	store.Close()

	// Restart: counters are per-process and must start at zero even
	// though the store arrives fully warm.
	store2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := simtest.New()
	c2 := NewCache(store2, simulate(r2.Run))
	if hits, misses := c2.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("restarted cache starts at %d hits / %d misses, want 0/0", hits, misses)
	}
	if !c2.Contains(jobs[0]) {
		t.Fatal("restart lost a stored job")
	}
	if hits, misses := c2.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("Contains counted: %d hits / %d misses", hits, misses)
	}
	for _, j := range jobs {
		if _, hit, err := c2.Do(context.Background(), j); err != nil || !hit {
			t.Fatalf("warm Do: hit=%v err=%v", hit, err)
		}
	}
	if _, ok := c2.Lookup(jobs[0]); !ok {
		t.Fatal("warm Lookup missed")
	}
	if hits, misses := c2.Stats(); hits != uint64(len(jobs))+1 || misses != 0 {
		t.Fatalf("warm process stats = %d hits / %d misses, want %d/0", hits, misses, len(jobs)+1)
	}
	if r2.Total() != 0 {
		t.Fatalf("warm process simulated %d jobs", r2.Total())
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	r := simtest.New()
	r.Fail = true
	c := NewCache(tempStore(t), simulate(r.Run))
	j := testJobs(t, 1)[0]
	if _, _, err := c.Do(context.Background(), j); err == nil {
		t.Fatal("failed run reported no error")
	}
	r.Fail = false
	rec, hit, err := c.Do(context.Background(), j)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if hit {
		t.Fatal("failure was cached as a result")
	}
	if rec.Key != j.Key() {
		t.Fatalf("retry record key = %q, want %q", rec.Key, j.Key())
	}
	if r.Total() != 2 {
		t.Fatalf("runner called %d times, want 2 (failure + retry)", r.Total())
	}
}

func TestCacheWaiterHonoursContext(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	c := NewCache(tempStore(t), simulate(r.Run))
	j := testJobs(t, 1)[0]

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, _, err := c.Do(context.Background(), j); err != nil {
			t.Error(err)
		}
	}()
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(r.Gate)
	<-leaderDone
}

func TestCacheRelabelsTweak(t *testing.T) {
	r := simtest.New()
	c := NewCache(tempStore(t), simulate(r.Run))
	mk := func(name string) Job {
		jobs, err := Spec{
			Workloads: []string{"2W1"}, Policies: []string{"ICOUNT"},
			Cycles: 1000,
			Tweaks: []Tweak{{Name: name, MSHREntries: 4}},
		}.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0]
	}
	if _, _, err := c.Do(context.Background(), mk("small-mshr")); err != nil {
		t.Fatal(err)
	}
	rec, hit, err := c.Do(context.Background(), mk("mshr4"))
	if err != nil || !hit {
		t.Fatalf("renamed tweak missed the cache: hit=%v err=%v", hit, err)
	}
	if rec.Tweak != "mshr4" {
		t.Fatalf("cached record kept stale label %q", rec.Tweak)
	}
}

func TestRunCachedSharedScheduler(t *testing.T) {
	r := simtest.New()
	c := NewCache(tempStore(t), simulate(r.Run))
	sched := &Scheduler{Workers: 4}
	jobs := testJobs(t, 1, 2, 3)

	// Two concurrent identical campaigns on one scheduler and cache, as a
	// daemon runs them: every job must simulate exactly once, and both
	// must see identical records in job order.
	var wg sync.WaitGroup
	out := make([][]Record, 2)
	errs := make([]error, 2)
	progress := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = sched.RunCached(context.Background(), jobs, c,
				func(p Progress) { progress[i]++ })
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("campaign %d: %v", i, errs[i])
		}
		if progress[i] != len(jobs) {
			t.Fatalf("campaign %d reported %d progress events, want %d", i, progress[i], len(jobs))
		}
	}
	if got := r.Max(); got != 1 {
		t.Fatalf("a job simulated %d times across concurrent campaigns, want 1", got)
	}
	if r.Total() != len(jobs) {
		t.Fatalf("%d simulations for %d distinct jobs", r.Total(), len(jobs))
	}
	for k := range out[0] {
		if !reflect.DeepEqual(out[0][k], out[1][k]) {
			t.Fatalf("campaign records diverge at %d: %+v vs %+v", k, out[0][k], out[1][k])
		}
	}
}

func TestRunCachedCancellation(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	c := NewCache(tempStore(t), simulate(r.Run))
	sched := &Scheduler{Workers: 1}
	jobs := testJobs(t, 1, 2, 3)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var recs []Record
	var err error
	go func() {
		defer close(done)
		recs, err = sched.RunCached(ctx, jobs, c, nil)
	}()
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(r.Gate)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunCached returned %v", err)
	}
	// The in-flight job finished and is cached; jobs never started stay
	// zero-valued in the result slice.
	if recs[0].Key == "" {
		t.Fatal("in-flight job's record lost on cancellation")
	}
}

// TestRunCachedServesHitsWithoutSlots: a fully-cached campaign must
// complete even while a simulation on the same scheduler and cache is
// blocked — cache hits are resolved before the pool, not queued behind
// long-running simulations.
func TestRunCachedServesHitsWithoutSlots(t *testing.T) {
	r := simtest.New()
	c := NewCache(tempStore(t), simulate(r.Run))
	sched := &Scheduler{Workers: 1}
	cachedJobs := testJobs(t, 1)
	if _, err := sched.RunCached(context.Background(), cachedJobs, c, nil); err != nil {
		t.Fatal(err)
	}

	// Block a gated simulation of a different job.
	r.Gate = make(chan struct{})
	blockerJobs, err := Spec{
		Workloads: []string{"2W3"}, Policies: []string{"ICOUNT"}, Cycles: 1000,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		sched.RunCached(context.Background(), blockerJobs, c, nil)
	}()
	for r.Total() == len(cachedJobs) {
		time.Sleep(time.Millisecond)
	}

	// The cached campaign completes while that simulation is blocked.
	done := make(chan struct{})
	var recs []Record
	go func() {
		defer close(done)
		recs, err = sched.RunCached(context.Background(), cachedJobs, c, nil)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fully-cached campaign blocked behind a running simulation")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(cachedJobs) || recs[0].Key == "" {
		t.Fatalf("cached campaign records = %+v", recs)
	}
	close(r.Gate)
	<-blockerDone
}
