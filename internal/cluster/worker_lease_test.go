package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestWorkerLeaseRejectsKeyMismatch leases a worker three wires at
// once, one of them with a tampered Key. The tampered wire must come
// back as a JobFailure naming the key mismatch without ever reaching the
// runner, while the other two each run through one Runner call and post
// records byte-identical to solo sim.Run.
func TestWorkerLeaseRejectsKeyMismatch(t *testing.T) {
	jobs, err := campaign.Spec{
		Workloads: []string{"2W1"},
		Policies:  []string{"ICOUNT", "MFLUSH", "FLUSH-S30"},
		Seeds:     []uint64{1},
		Cycles:    1500,
		Warmup:    500,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	tampered := jobs[2].Wire()
	tampered.Key = strings.Repeat("0", len(tampered.Key))
	lease := []campaign.WireJob{jobs[0].Wire(), tampered, jobs[1].Wire()}

	// A stub coordinator: registration, one lease carrying all three
	// wires, empty long-polls after that, and a log of every post.
	var mu sync.Mutex
	leased := false
	var posted ResultsRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(RegisterResponse{ID: "w1", LeaseTTLMS: 60_000})
	})
	mux.HandleFunc("POST /v1/workers/w1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		resp := LeaseResponse{Jobs: []campaign.WireJob{}}
		if req.Max > 0 && !leased {
			leased = true
			resp.Jobs = lease
		}
		mu.Unlock()
		if len(resp.Jobs) == 0 && req.Max > 0 {
			time.Sleep(10 * time.Millisecond) // a short long-poll
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /v1/workers/w1/results", func(w http.ResponseWriter, r *http.Request) {
		var req ResultsRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		posted.Records = append(posted.Records, req.Records...)
		posted.Failures = append(posted.Failures, req.Failures...)
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(ResultsResponse{Accepted: len(req.Records) + len(req.Failures)})
	})
	mux.HandleFunc("DELETE /v1/workers/w1", func(w http.ResponseWriter, r *http.Request) {})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var ran []string
	w := &Worker{
		Base: ts.URL, Capacity: len(lease), LeaseWait: 10 * time.Millisecond,
		Runner: func(o sim.Options) (*sim.Result, error) {
			mu.Lock()
			ran = append(ran, o.Policy.String())
			mu.Unlock()
			return sim.Run(o)
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan error, 1)
	go func() { exited <- w.Run(ctx) }()
	simtest.WaitFor(t, 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(posted.Records)+len(posted.Failures) == len(lease)
	}, "worker posted %v of %d outcomes", func() any {
		mu.Lock()
		defer mu.Unlock()
		return len(posted.Records) + len(posted.Failures)
	}, len(lease))
	cancel()
	if err := <-exited; err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(posted.Failures) != 1 || posted.Failures[0].Key != tampered.Key ||
		!strings.Contains(posted.Failures[0].Error, "key mismatch") {
		t.Errorf("failures = %+v, want one key-mismatch failure for %s", posted.Failures, tampered.Key)
	}
	if len(ran) != 2 {
		t.Errorf("runner ran %v, want the two untampered jobs only", ran)
	}
	want := map[string]string{}
	for _, j := range jobs[:2] {
		res, err := sim.Run(j.Options())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(campaign.NewRecord(j, res))
		want[j.Key()] = string(b)
	}
	if len(posted.Records) != len(want) {
		t.Fatalf("posted %d records, want %d", len(posted.Records), len(want))
	}
	for _, rec := range posted.Records {
		if b, _ := json.Marshal(rec); string(b) != want[rec.Key] {
			t.Errorf("record %s differs from solo sim.Run\n worker: %s\n solo: %s", rec.Key, b, want[rec.Key])
		}
	}
}
