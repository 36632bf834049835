package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/simtest"
)

// fetch GETs a path from a live test server and returns the body.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func postSpec(t *testing.T, ts *httptest.Server, spec string) submitResponse {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// waitDone polls a campaign's status URL until it reports done, failing
// fast — with the what prefix — if it leaves the running state.
func waitDone(t *testing.T, ts *httptest.Server, statusURL string, timeout time.Duration, what string) {
	t.Helper()
	simtest.WaitFor(t, timeout, func() bool {
		_, body := fetch(t, ts, statusURL)
		var st Status
		mustUnmarshal(t, body, &st)
		if st.State == StateDone {
			return true
		}
		if st.State != StateRunning {
			t.Fatalf("%s: campaign state %q", what, st.State)
		}
		return false
	}, "%s: campaign never reached done", what)
}

// TestConcurrentIdenticalCampaignsSimulateOnce is the daemon's core
// promise: two clients submitting the same campaign at the same time
// cost one simulation per job, not two, and both receive byte-identical
// aggregates.
func TestConcurrentIdenticalCampaignsSimulateOnce(t *testing.T) {
	dir := t.TempDir()
	store, err := campaign.OpenStore(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Store: store, Runner: r.Run, Workers: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Submit the identical spec twice while every simulation is gated, so
	// both campaigns are provably in flight together.
	subA := postSpec(t, ts, specBody)
	subB := postSpec(t, ts, specBody)
	if subA.ID == subB.ID {
		t.Fatalf("campaigns share ID %s", subA.ID)
	}
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(r.Gate)

	for _, sub := range []submitResponse{subA, subB} {
		waitDone(t, ts, sub.StatusURL, 10*time.Second, "campaign "+sub.ID)
	}

	// Exactly one simulator invocation per distinct job.
	if got := r.Max(); got != 1 {
		t.Fatalf("a job simulated %d times across concurrent campaigns, want 1", got)
	}
	if r.Total() != 4 {
		t.Fatalf("%d simulations for 4 distinct jobs", r.Total())
	}

	// Byte-identical aggregates, in every format.
	for _, format := range []string{"json", "csv", "table", "rows"} {
		_, bodyA := fetch(t, ts, subA.ResultURL+"?format="+format)
		_, bodyB := fetch(t, ts, subB.ResultURL+"?format="+format)
		if string(bodyA) != string(bodyB) {
			t.Fatalf("%s aggregates differ:\n%s\nvs\n%s", format, bodyA, bodyB)
		}
		if len(bodyA) == 0 {
			t.Fatalf("empty %s aggregate", format)
		}
	}
}

// TestCacheHitAfterRestart: a new daemon process over the same store
// serves a previously computed campaign without one simulator call.
func TestCacheHitAfterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := campaign.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := simtest.New()
	s1 := New(Config{Store: store, Runner: r1.Run})
	id := submit(t, s1, specBody)
	if state := waitState(t, s1, id); state != StateDone {
		t.Fatalf("first run state %q", state)
	}
	req := httptest.NewRequest("GET", "/v1/campaigns/"+id+"/result?format=csv", nil)
	rec := httptest.NewRecorder()
	s1.ServeHTTP(rec, req)
	firstCSV := rec.Body.String()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// "Restart": fresh Server, fresh runner, reopened store.
	store2, err := campaign.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := simtest.New()
	s2 := New(Config{Store: store2, Runner: r2.Run})
	id2 := submit(t, s2, specBody)
	if state := waitState(t, s2, id2); state != StateDone {
		t.Fatalf("restarted run state %q", state)
	}
	if r2.Total() != 0 {
		t.Fatalf("restart re-simulated %d jobs, want 0", r2.Total())
	}
	_, st := do(t, s2, "GET", "/v1/campaigns/"+id2, "")
	if st["cached"].(float64) != 4 {
		t.Fatalf("restarted campaign cached = %v, want 4", st["cached"])
	}

	req = httptest.NewRequest("GET", "/v1/campaigns/"+id2+"/result?format=csv", nil)
	rec = httptest.NewRecorder()
	s2.ServeHTTP(rec, req)
	if rec.Body.String() != firstCSV {
		t.Fatalf("aggregate changed across restart:\n%s\nvs\n%s", rec.Body.String(), firstCSV)
	}
}

// TestDrainFinishesInFlightWithoutCorruptingStore: SIGTERM-style drain
// lets in-flight simulations complete and persist; the store reopens
// cleanly with exactly those records.
func TestDrainFinishesInFlightWithoutCorruptingStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := campaign.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Store: store, Runner: r.Run, Workers: 1})
	id := submit(t, s, specBody)
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var drainErr error
	go func() {
		defer wg.Done()
		drainErr = s.Drain(context.Background())
	}()
	// The drain must not complete while a simulation is in flight.
	time.Sleep(10 * time.Millisecond)
	close(r.Gate)
	wg.Wait()
	if drainErr != nil {
		t.Fatal(drainErr)
	}
	if state := waitState(t, s, id); state != StateCanceled {
		t.Fatalf("drained campaign state %q", state)
	}
	if r.Total() != 1 {
		t.Fatalf("%d jobs ran under drain with 1 worker, want 1", r.Total())
	}
	store.Close()

	// The store is intact and holds exactly the in-flight job's record.
	reopened, err := campaign.OpenStore(path)
	if err != nil {
		t.Fatalf("store corrupted by drain: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != 1 {
		t.Fatalf("store holds %d records after drain, want 1", reopened.Len())
	}
}

// TestDrainTimeout: a drain bounded by an already-expired context
// reports the deadline instead of hanging on a stuck simulation.
func TestDrainTimeout(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 1})
	submit(t, s, specBody)
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with stuck simulation returned nil")
	}
	close(r.Gate)
	// Let the campaign goroutine unwind before the test ends.
	s.Drain(context.Background())
}

// TestSSEStream reads the event stream end to end: status snapshot,
// one progress event per job, then the terminal event.
func TestSSEStream(t *testing.T) {
	r := simtest.New()
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postSpec(t, ts, specBody)
	resp, err := ts.Client().Get(ts.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type event struct {
		name string
		data map[string]any
	}
	var events []event
	sc := bufio.NewScanner(resp.Body)
	var cur event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad event data %q: %v", line, err)
			}
		case line == "":
			events = append(events, cur)
			cur = event{}
		}
	}
	// The server closes the stream after the terminal event, ending Scan.
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].name != "status" {
		t.Fatalf("first event %q, want status snapshot", events[0].name)
	}
	last := events[len(events)-1]
	if last.name != StateDone {
		t.Fatalf("terminal event %q, want %q", last.name, StateDone)
	}
	if last.data["completed"].(float64) != 4 {
		t.Fatalf("terminal totals = %v", last.data)
	}
	progress := 0
	for _, ev := range events {
		if ev.name == "progress" {
			progress++
			if ev.data["job"].(string) == "" {
				t.Fatalf("progress event without job: %v", ev.data)
			}
		}
	}
	// A subscriber attached at submit time sees every job exactly once
	// (the stream opened before any could finish is not guaranteed, so
	// allow early completions to be missing — but never duplicates).
	if progress > 4 {
		t.Fatalf("%d progress events for 4 jobs", progress)
	}
}

// TestSSETerminalEventForLateSubscriber: subscribing to a finished
// campaign still yields the terminal event immediately.
func TestSSETerminalEventForLateSubscriber(t *testing.T) {
	r := simtest.New()
	s := New(Config{Store: tempStore(t), Runner: r.Run})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postSpec(t, ts, specBody)
	waitDone(t, ts, sub.StatusURL, 10*time.Second, "event-log campaign")

	_, body := fetch(t, ts, sub.EventsURL)
	text := string(body)
	if !strings.Contains(text, "event: done") {
		t.Fatalf("late subscriber stream missing terminal event:\n%s", text)
	}
}

// TestStoreSurvivesDaemonKill simulates a hard kill mid-append: the
// reopened store drops only the torn tail and the daemon serves the
// surviving records as cache hits.
func TestStoreSurvivesDaemonKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := campaign.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r := simtest.New()
	s := New(Config{Store: store, Runner: r.Run})
	id := submit(t, s, specBody)
	waitState(t, s, id)
	s.Drain(context.Background())
	store.Close()

	// Tear the file as a kill mid-write would.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn`)
	f.Close()

	store2, err := campaign.OpenStore(path)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer store2.Close()
	if store2.Len() != 4 {
		t.Fatalf("survivors = %d, want 4", store2.Len())
	}
	r2 := simtest.New()
	s2 := New(Config{Store: store2, Runner: r2.Run})
	id2 := submit(t, s2, specBody)
	if state := waitState(t, s2, id2); state != StateDone {
		t.Fatalf("state = %q", state)
	}
	if r2.Total() != 0 {
		t.Fatalf("re-simulated %d jobs after kill, want 0", r2.Total())
	}
}
