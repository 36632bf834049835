package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// sampledSpec asks every job for interval samples: 4 jobs x 4 samples.
const sampledSpec = `{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1,2],"cycles":1000,"interval":250}`

// TestSSESampleEvents proves live interval samples flow from running
// simulations to SSE subscribers: a gated runner holds every job until
// the stream is attached, then each job's samples arrive as "sample"
// events — with the job name, its cache key, and the SamplePoint schema
// — without ending the stream before the real terminal event.
func TestSSESampleEvents(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postSpec(t, ts, sampledSpec)
	resp, err := ts.Client().Get(ts.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type sampleData struct {
		Job    string `json:"job"`
		Key    string `json:"key"`
		Sample struct {
			Cycle          uint64  `json:"cycle"`
			MeasuredCycles uint64  `json:"measured_cycles"`
			IPC            float64 `json:"ipc"`
		} `json:"sample"`
	}
	var (
		samples  []sampleData
		terminal string
		gateOpen bool
	)
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "status":
				if !gateOpen {
					// The subscription is live (the snapshot arrived
					// before any job could finish); release the jobs.
					close(r.Gate)
					gateOpen = true
				}
			case "sample":
				var sd sampleData
				if err := json.Unmarshal([]byte(data), &sd); err != nil {
					t.Fatalf("bad sample payload %q: %v", data, err)
				}
				samples = append(samples, sd)
			case "progress":
			default:
				terminal = event
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal != StateDone {
		t.Fatalf("terminal event %q, want %q", terminal, StateDone)
	}
	if len(samples) != 16 {
		t.Fatalf("saw %d sample events, want 16 (4 jobs x 4 samples)", len(samples))
	}
	perJob := make(map[string]int)
	for _, sd := range samples {
		if sd.Job == "" || sd.Key == "" {
			t.Fatalf("sample without job/key: %+v", sd)
		}
		perJob[sd.Job]++
		if sd.Sample.MeasuredCycles == 0 || sd.Sample.MeasuredCycles > 1000 {
			t.Fatalf("sample outside the measured window: %+v", sd)
		}
	}
	if len(perJob) != 4 {
		t.Fatalf("samples from %d jobs, want 4: %v", len(perJob), perJob)
	}

	// A resubmission is fully cached: it settles done with zero fresh
	// simulations, so no live samples are streamed.
	sub2 := postSpec(t, ts, sampledSpec)
	resp2, err := ts.Client().Get(ts.URL + sub2.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		line := sc2.Text()
		if strings.HasPrefix(line, "event: sample") {
			t.Fatal("cached campaign streamed a live sample")
		}
	}
	if r.Total() != 4 {
		t.Fatalf("%d simulations after cached resubmit, want 4", r.Total())
	}
}

// TestSampleBudgetOverflow: a hostile-but-valid spec (cycles 2^63,
// interval 1) must clamp the sample budget instead of overflowing it
// negative — a negative channel capacity would panic the SSE handler.
func TestSampleBudgetOverflow(t *testing.T) {
	gate := make(chan struct{}) // hold the job so the campaign stays live
	defer close(gate)
	// Released, the job fails instead of simulating: a fake run of 2^63
	// cycles at interval 1 would outlive the test, appending samples
	// until the test binary runs out of memory.
	runner := func(sim.Options) (*sim.Result, error) {
		<-gate
		return nil, errors.New("held job released")
	}
	s := New(Config{Store: tempStore(t), Runner: runner, Workers: 1})
	id := submit(t, s, `{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":9223372036854775808,"interval":1}`)
	// Subscribing must not panic; the recorder returns the status event.
	req := httptest.NewRequest("GET", "/v1/campaigns/"+id+"/events", nil)
	ctx, cancel := context.WithCancel(req.Context())
	req = req.WithContext(ctx)
	done := make(chan struct{})
	rec := httptest.NewRecorder()
	go func() { s.ServeHTTP(rec, req); close(done) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done
	if !strings.Contains(rec.Body.String(), "event: status") {
		t.Fatalf("no status event in SSE body: %q", rec.Body.String())
	}
}
