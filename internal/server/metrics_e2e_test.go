package server

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// scrape GETs /metrics through the real mux, runs the body through the
// strict exposition parser (so every scrape in the test doubles as a
// conformance check), and flattens the samples into a map keyed
// "name|k=v|k=v" with labels sorted.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := metrics.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("scrape failed conformance: %v\n%s", err, rec.Body.String())
	}
	vals := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			labels := make([]string, 0, len(s.Labels))
			for k, v := range s.Labels {
				labels = append(labels, k+"="+v)
			}
			sort.Strings(labels)
			for _, l := range labels {
				key += "|" + l
			}
			vals[key] = s.Value
		}
	}
	return vals
}

// TestMetricsEndToEnd drives a real campaign through the daemon and
// asserts the scrape moves with it: queue depth and the live IPC gauge
// while jobs are in flight, cache misses after the first run, cache
// hits after an identical resubmit, and series cleanup after the
// campaign settles.
func TestMetricsEndToEnd(t *testing.T) {
	r := simtest.New()
	gate := make(chan struct{})
	// Wrap the fake simulator: publish one live sample, then hold the
	// job until the gate opens, so the mid-flight scrape provably sees
	// both the queue depth and the interval-IPC gauge.
	runner := func(o sim.Options) (*sim.Result, error) {
		if o.OnSample != nil {
			o.OnSample(sim.SamplePoint{Cycle: 100, MeasuredCycles: 100, IPC: 2.5, IntervalIPC: 2.5})
		}
		<-gate
		return r.Run(o)
	}
	s := New(Config{Store: tempStore(t), Runner: runner, Workers: 4, MaxQueuedJobs: 100})

	baseline := scrape(t, s)
	if v := baseline["mflush_admission_queue_depth"]; v != 0 {
		t.Fatalf("idle queue depth = %v", v)
	}
	if _, ok := baseline["mflush_go_goroutines"]; !ok {
		t.Fatal("mflush_go_goroutines missing from scrape")
	}

	sampledSpec := `{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1,2],"cycles":1000,"interval":100}`
	id := submit(t, s, sampledSpec)

	// Mid-flight: jobs hold the queue open and the first live samples
	// have been published (the runner emits one before blocking).
	simtest.WaitFor(t, 10*time.Second, func() bool {
		vals := scrape(t, s)
		if vals["mflush_admission_queue_depth"] > 0 &&
			vals["mflush_campaign_interval_ipc|campaign="+id] == 2.5 {
			if v := vals["mflush_campaigns|state=running"]; v != 1 {
				t.Fatalf("running campaigns = %v, want 1", v)
			}
			if v := vals["mflush_campaigns_submitted_total"]; v != 1 {
				t.Fatalf("submitted = %v, want 1", v)
			}
			return true
		}
		return false
	}, "mid-flight metrics never appeared; scrape = %v", func() any { return scrape(t, s) })

	close(gate)
	if st := waitState(t, s, id); st != StateDone {
		t.Fatalf("campaign settled %s", st)
	}

	// Settled: the queue drained, the per-campaign IPC series was
	// deleted with its campaign, and all four jobs were cache misses.
	var vals map[string]float64
	simtest.WaitFor(t, 10*time.Second, func() bool {
		vals = scrape(t, s)
		return vals["mflush_admission_queue_depth"] == 0
	}, "queue depth never drained; scrape = %v", func() any { return scrape(t, s) })
	if _, ok := vals["mflush_campaign_interval_ipc|campaign="+id]; ok {
		t.Fatal("per-campaign IPC series not deleted after campaign settled")
	}
	if v := vals["mflush_campaigns|state=done"]; v != 1 {
		t.Fatalf("done campaigns = %v, want 1", v)
	}
	if v := vals["mflush_cache_misses_total"]; v != 4 {
		t.Fatalf("cache misses = %v, want 4", v)
	}
	if v := vals["mflush_cache_hits_total"]; v != 0 {
		t.Fatalf("cache hits = %v, want 0", v)
	}
	if v := vals["mflush_cache_entries"]; v != 4 {
		t.Fatalf("cache entries = %v, want 4", v)
	}

	// Resubmitting the identical spec is served wholly from the cache:
	// hits move, misses don't.
	id2 := submit(t, s, sampledSpec)
	waitState(t, s, id2)
	vals = scrape(t, s)
	if v := vals["mflush_cache_hits_total"]; v != 4 {
		t.Fatalf("cache hits after resubmit = %v, want 4", v)
	}
	if v := vals["mflush_cache_misses_total"]; v != 4 {
		t.Fatalf("cache misses after resubmit = %v, want 4", v)
	}
	if v := vals["mflush_campaigns|state=done"]; v != 2 {
		t.Fatalf("done campaigns = %v, want 2", v)
	}
}

// TestMetricsAdmissionRejected asserts the 429 path bumps the rejected
// counter.
func TestMetricsAdmissionRejected(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	defer close(r.Gate)
	s := New(Config{Store: tempStore(t), Runner: r.Run, MaxQueuedJobs: 5, Workers: 2})
	submit(t, s, specBody)

	code, _ := do(t, s, "POST", "/v1/campaigns", specBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit = %d, want 429", code)
	}
	vals := scrape(t, s)
	if v := vals["mflush_admission_rejected_total"]; v != 1 {
		t.Fatalf("rejected = %v, want 1", v)
	}
}

// TestMetricsSSESubscribers asserts the subscriber gauge tracks open
// event streams.
func TestMetricsSSESubscribers(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 1})
	id := submit(t, s, specBody)

	done := make(chan struct{})
	req := httptest.NewRequest("GET", "/v1/campaigns/"+id+"/events", nil)
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req) // returns once the campaign settles
	}()

	simtest.WaitFor(t, 10*time.Second,
		func() bool { return scrape(t, s)["mflush_sse_subscribers"] == 1 },
		"SSE subscriber gauge never rose")
	close(r.Gate)
	waitState(t, s, id)
	<-done
	if v := scrape(t, s)["mflush_sse_subscribers"]; v != 0 {
		t.Fatalf("SSE subscribers after stream closed = %v, want 0", v)
	}
}

// TestDashboardServes asserts /dashboard renders the embedded page.
func TestDashboardServes(t *testing.T) {
	s := New(Config{Store: tempStore(t), Runner: simtest.New().Run})
	req := httptest.NewRequest("GET", "/dashboard", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /dashboard = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"Live interval IPC", "/v1/campaigns", "EventSource", "const CLUSTER = false"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard page missing %q", want)
		}
	}
}
