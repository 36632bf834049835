package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
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

// TestSSESampleEventsJoinedCampaign: a campaign whose jobs join another
// campaign's in-flight sampled runs streams those runs' live samples as
// well: both SSE streams see all 16 sample events from 4 simulations.
func TestSSESampleEventsJoinedCampaign(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var streams []*http.Response
	for range 2 {
		sub := postSpec(t, ts, sampledSpec)
		resp, err := ts.Client().Get(ts.URL + sub.EventsURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		streams = append(streams, resp)
	}
	// Release the first campaign's runs only once the second waits on all
	// four of them.
	simtest.WaitFor(t, 10*time.Second, func() bool { return s.cache.Waiting() == 4 },
		"the second campaign never joined the first one's runs")
	close(r.Gate)

	for i, resp := range streams {
		var (
			samples  int
			terminal string
			event    string
		)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				switch event {
				case "sample":
					samples++
				case "status", "progress":
				default:
					terminal = event
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if terminal != StateDone || samples != 16 {
			t.Fatalf("campaign %d: terminal %q with %d sample events, want %q with 16", i+1, terminal, samples, StateDone)
		}
	}
	if r.Total() != 4 {
		t.Fatalf("%d simulations, want 4", r.Total())
	}
}

// TestSampleBudgetOverflow: the largest sampled spec the admission
// bounds allow (2^30 cycles and warmup at 2^16 samples) must clamp the
// SSE sample budget instead of sizing a buffer for every sample, and a
// spec beyond them (cycles 2^63, interval 1) is refused with a 400.
func TestSampleBudgetOverflow(t *testing.T) {
	gate := make(chan struct{}) // hold the job so the campaign stays live
	defer close(gate)
	// Released, the job fails instead of simulating 2^30 cycles.
	runner := func(sim.Options) (*sim.Result, error) {
		<-gate
		return nil, errors.New("held job released")
	}
	s := New(Config{Store: tempStore(t), Runner: runner, Workers: 1})
	code, resp := do(t, s, "POST", "/v1/campaigns", `{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":9223372036854775808,"interval":1}`)
	if code != http.StatusBadRequest || !strings.Contains(resp["error"].(string), "cycles 9223372036854775808 exceeds the bound 1073741824") {
		t.Fatalf("2^63-cycle spec = %d %v, want 400 naming the cycles bound", code, resp)
	}
	id := submit(t, s, `{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1073741824,"warmup":1073741824,"interval":16384}`)
	s.mu.Lock()
	budget := s.campaigns[id].sampleBudget
	s.mu.Unlock()
	if budget != 4096 {
		t.Fatalf("sample budget %d for 65536 samples, want the 4096 cap", budget)
	}
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
