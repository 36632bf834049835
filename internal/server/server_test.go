package server

import (
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

const specBody = `{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1,2],"cycles":1000}`

// do issues one request against the handler and decodes the JSON body.
func do(t *testing.T, h http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]any
	raw := rec.Body.Bytes()
	if len(raw) > 0 && (raw[0] == '{' || raw[0] == '[') {
		if err := json.Unmarshal(raw, &decoded); err != nil && raw[0] == '{' {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, path, raw, err)
		}
	}
	return rec.Code, decoded
}

// submit posts a spec and returns the campaign ID.
func submit(t *testing.T, h http.Handler, body string) string {
	t.Helper()
	code, resp := do(t, h, "POST", "/v1/campaigns", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%v)", code, resp)
	}
	return resp["id"].(string)
}

// waitState polls until the campaign reaches a terminal state.
func waitState(t *testing.T, h http.Handler, id string) string {
	t.Helper()
	var state string
	simtest.WaitFor(t, 10*time.Second, func() bool {
		_, st := do(t, h, "GET", "/v1/campaigns/"+id, "")
		state = st["state"].(string)
		return state != StateRunning
	}, "campaign %s never settled", id)
	return state
}

func TestSubmitRunsToCompletion(t *testing.T) {
	r := simtest.New()
	s := New(Config{Runner: r.Run})
	id := submit(t, s, specBody)

	if state := waitState(t, s, id); state != StateDone {
		t.Fatalf("state = %q", state)
	}
	_, st := do(t, s, "GET", "/v1/campaigns/"+id, "")
	if st["completed"].(float64) != 4 || st["jobs"].(float64) != 4 {
		t.Fatalf("status = %v", st)
	}
	if r.Total() != 4 {
		t.Fatalf("%d simulations for 4 jobs", r.Total())
	}

	code, _ := do(t, s, "GET", "/v1/campaigns/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	// CSV and table formats are served too.
	for _, format := range []string{"csv", "table", "rows"} {
		req := httptest.NewRequest("GET", "/v1/campaigns/"+id+"/result?format="+format, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Fatalf("format %s = %d, %d bytes", format, rec.Code, rec.Body.Len())
		}
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := New(Config{Runner: simtest.New().Run})
	for _, body := range []string{
		"",                      // empty
		"{not json",             // malformed
		`{"workloads":["2W1"]}`, // no policies/cycles
		`{"workloads":["2W1"],"policies":["ICOUNT"],"cycles":1000,"bogus":1}`, // unknown field
		`{"workloads":["2W1"],"policies":["NOPE"],"cycles":1000}`,             // unknown policy
	} {
		code, resp := do(t, s, "POST", "/v1/campaigns", body)
		if code != http.StatusBadRequest {
			t.Errorf("submit(%q) = %d (%v), want 400", body, code, resp)
		}
		if resp["error"] == "" {
			t.Errorf("submit(%q): no error message", body)
		}
	}
}

func TestUnknownCampaign(t *testing.T) {
	s := New(Config{Runner: simtest.New().Run})
	for _, path := range []string{
		"/v1/campaigns/c999999",
		"/v1/campaigns/c999999/result",
		"/v1/campaigns/c999999/events",
	} {
		if code, _ := do(t, s, "GET", path, ""); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	if code, _ := do(t, s, "DELETE", "/v1/campaigns/c999999", ""); code != http.StatusNotFound {
		t.Errorf("DELETE = %d, want 404", code)
	}
}

func TestResultWhileRunningConflicts(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Runner: r.Run})
	id := submit(t, s, specBody)
	defer close(r.Gate)

	code, resp := do(t, s, "GET", "/v1/campaigns/"+id+"/result", "")
	if code != http.StatusConflict {
		t.Fatalf("result while running = %d (%v), want 409", code, resp)
	}
}

func TestResultUnknownFormat(t *testing.T) {
	r := simtest.New()
	s := New(Config{Runner: r.Run})
	id := submit(t, s, specBody)
	waitState(t, s, id)
	code, resp := do(t, s, "GET", "/v1/campaigns/"+id+"/result?format=xml", "")
	if code != http.StatusBadRequest {
		t.Fatalf("format=xml = %d (%v)", code, resp)
	}
}

func TestBackpressure429(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	// Queue bound of 5: the first campaign's 4 jobs fit, the second's
	// 4 more do not.
	s := New(Config{Runner: r.Run, MaxQueuedJobs: 5, Workers: 2})
	submit(t, s, specBody)

	req := httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(specBody))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var resp map[string]any
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if !strings.Contains(resp["error"].(string), "queue full") {
		t.Fatalf("429 body = %v", resp)
	}

	// Draining the queue re-opens admission.
	close(r.Gate)
	simtest.WaitFor(t, 10*time.Second, func() bool {
		code, _ := do(t, s, "POST", "/v1/campaigns", specBody)
		return code == http.StatusAccepted
	}, "admission never re-opened after queue drained")
}

func TestCancelCampaign(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Runner: r.Run, Workers: 1})
	id := submit(t, s, specBody)
	for r.Total() == 0 {
		time.Sleep(time.Millisecond)
	}

	code, _ := do(t, s, "DELETE", "/v1/campaigns/"+id, "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel = %d", code)
	}
	close(r.Gate)
	if state := waitState(t, s, id); state != StateCanceled {
		t.Fatalf("state after cancel = %q", state)
	}
	// Jobs that never started were not simulated: 1 worker, so only the
	// in-flight job ran.
	if r.Total() != 1 {
		t.Fatalf("%d jobs simulated after early cancel, want 1", r.Total())
	}
	// Cancelling again is idempotent.
	if code, _ := do(t, s, "DELETE", "/v1/campaigns/"+id, ""); code != http.StatusAccepted {
		t.Fatalf("second cancel = %d", code)
	}
}

func TestFailedCampaign(t *testing.T) {
	r := simtest.New()
	r.Fail = true
	s := New(Config{Runner: r.Run})
	id := submit(t, s, specBody)
	if state := waitState(t, s, id); state != StateFailed {
		t.Fatalf("state = %q", state)
	}
	_, st := do(t, s, "GET", "/v1/campaigns/"+id, "")
	if !strings.Contains(st["error"].(string), "synthetic simulator failure") {
		t.Fatalf("status error = %v", st["error"])
	}
	code, _ := do(t, s, "GET", "/v1/campaigns/"+id+"/result", "")
	if code != http.StatusConflict {
		t.Fatalf("result of failed campaign = %d, want 409", code)
	}
}

func TestListCampaigns(t *testing.T) {
	r := simtest.New()
	s := New(Config{Runner: r.Run})
	a := submit(t, s, specBody)
	b := submit(t, s, specBody)
	waitState(t, s, a)
	waitState(t, s, b)

	_, resp := do(t, s, "GET", "/v1/campaigns", "")
	list := resp["campaigns"].([]any)
	if len(list) != 2 {
		t.Fatalf("%d campaigns listed", len(list))
	}
	first := list[0].(map[string]any)
	if first["id"].(string) != a {
		t.Fatalf("listing out of admission order: %v", list)
	}
}

func TestHealthAndCacheEndpoints(t *testing.T) {
	r := simtest.New()
	s := New(Config{Runner: r.Run})
	if code, resp := do(t, s, "GET", "/healthz", ""); code != 200 || resp["ok"] != true {
		t.Fatalf("healthz = %d %v", code, resp)
	}
	id := submit(t, s, specBody)
	waitState(t, s, id)
	_, cacheResp := do(t, s, "GET", "/v1/cache", "")
	if cacheResp["entries"].(float64) != 4 || cacheResp["misses"].(float64) != 4 {
		t.Fatalf("cache = %v", cacheResp)
	}
}

func TestDrainRejectsNewCampaigns(t *testing.T) {
	r := simtest.New()
	s := New(Config{Runner: r.Run})
	id := submit(t, s, specBody)
	waitState(t, s, id)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, s, "POST", "/v1/campaigns", specBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d (%v), want 503", code, resp)
	}
}

func TestCampaignRetentionEvictsSettled(t *testing.T) {
	r := simtest.New()
	s := New(Config{Runner: r.Run, MaxCampaigns: 2})
	a := submit(t, s, specBody)
	waitState(t, s, a)
	b := submit(t, s, specBody)
	waitState(t, s, b)
	c := submit(t, s, specBody) // evicts a (oldest settled)

	if code, _ := do(t, s, "GET", "/v1/campaigns/"+a, ""); code != http.StatusNotFound {
		t.Fatalf("evicted campaign %s = %d, want 404", a, code)
	}
	for _, id := range []string{b, c} {
		if code, _ := do(t, s, "GET", "/v1/campaigns/"+id, ""); code != http.StatusOK {
			t.Fatalf("retained campaign %s = %d", id, code)
		}
	}
	// Eviction forgets bookkeeping, not results: a's jobs stay cached.
	waitState(t, s, c)
	if r.Total() != 4 {
		t.Fatalf("%d simulations across three identical campaigns, want 4", r.Total())
	}
}

func TestCampaignRetentionSparesRunning(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Runner: r.Run, MaxCampaigns: 1, MaxQueuedJobs: 100})
	a := submit(t, s, specBody)
	b := submit(t, s, specBody) // over the bound, but a is still running
	if code, _ := do(t, s, "GET", "/v1/campaigns/"+a, ""); code != http.StatusOK {
		t.Fatalf("running campaign evicted: %d", code)
	}
	close(r.Gate)
	waitState(t, s, a)
	waitState(t, s, b)
}

func TestCacheKeysExposed(t *testing.T) {
	r := simtest.New()
	s := New(Config{Runner: r.Run})
	id := submit(t, s, specBody)
	waitState(t, s, id)

	_, plain := do(t, s, "GET", "/v1/cache", "")
	if _, ok := plain["keys"]; ok {
		t.Fatalf("keys served without being requested: %v", plain)
	}
	_, verbose := do(t, s, "GET", "/v1/cache?keys=1", "")
	keys, ok := verbose["keys"].([]any)
	if !ok || len(keys) != 4 {
		t.Fatalf("cache keys = %v", verbose["keys"])
	}
}

func TestCancelledWaiterNotCountedFailed(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	// Twice the campaign's width in slots: a's gated runs hold four, so
	// b's jobs get slots of their own and reach the cache's in-flight
	// join instead of queueing for a slot.
	s := New(Config{Runner: r.Run, Workers: 8, MaxQueuedJobs: 100})
	a := submit(t, s, specBody)
	simtest.WaitFor(t, 10*time.Second, func() bool { return r.Total() == 4 },
		"campaign a started %d runs, want 4", func() any { return r.Total() })
	// b's jobs all join a's in-flight runs; cancelling b while it waits
	// must settle it as canceled with zero failures.
	b := submit(t, s, specBody)
	simtest.WaitFor(t, 10*time.Second, func() bool { return s.cache.Waiting() == 4 },
		"%d of b's jobs joined a's in-flight runs, want 4", func() any { return s.cache.Waiting() })
	if code, _ := do(t, s, "DELETE", "/v1/campaigns/"+b, ""); code != http.StatusAccepted {
		t.Fatal("cancel failed")
	}
	close(r.Gate)
	if state := waitState(t, s, b); state != StateCanceled {
		t.Fatalf("waiter campaign state = %q", state)
	}
	_, st := do(t, s, "GET", "/v1/campaigns/"+b, "")
	if st["failed"].(float64) != 0 {
		t.Fatalf("cancelled waiter campaign reports %v failures", st["failed"])
	}
	waitState(t, s, a)
}

func TestOversizedCampaignPermanentlyRejected(t *testing.T) {
	s := New(Config{Runner: simtest.New().Run, MaxQueuedJobs: 3})
	// 4 jobs > capacity 3: impossible ever, so 400 without Retry-After,
	// not a retriable 429.
	req := httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(specBody))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized campaign = %d, want 400", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("permanent rejection carries Retry-After")
	}
	var resp map[string]any
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if !strings.Contains(resp["error"].(string), "split the spec") {
		t.Fatalf("400 body = %v", resp)
	}
}

func TestFirstFailureAbandonsRemainingJobs(t *testing.T) {
	// Fail only the first job in job order; with one worker, the three
	// remaining jobs must be abandoned, not simulated.
	r := simtest.New()
	base := r.Run
	failing := func(o sim.Options) (*sim.Result, error) {
		if _, err := base(o); err != nil {
			return nil, err
		}
		return nil, errors.New("synthetic simulator failure")
	}
	calls := 0
	runner := func(o sim.Options) (*sim.Result, error) {
		calls++ // Workers:1 => serial, no mutex needed
		if calls == 1 {
			return failing(o)
		}
		return base(o)
	}
	s := New(Config{Runner: runner, Workers: 1})
	id := submit(t, s, specBody)
	if state := waitState(t, s, id); state != StateFailed {
		t.Fatalf("state = %q", state)
	}
	if r.Total() != 1 {
		t.Fatalf("%d jobs simulated after first failure, want 1 (rest abandoned)", r.Total())
	}
	_, st := do(t, s, "GET", "/v1/campaigns/"+id, "")
	if st["failed"].(float64) != 1 || st["completed"].(float64) != 0 {
		t.Fatalf("status after abandon = %v", st)
	}
}

func TestFullyCachedCampaignBypassesAdmission(t *testing.T) {
	// Queue capacity 3 < the campaign's 4 jobs: the first submission is
	// permanently rejected, but once the jobs are in the cache (via two
	// halves) the full spec is admitted and served entirely from cache.
	r := simtest.New()
	s := New(Config{Runner: r.Run, MaxQueuedJobs: 3})
	half1 := `{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1],"cycles":1000}`
	half2 := `{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[2],"cycles":1000}`
	if code, _ := do(t, s, "POST", "/v1/campaigns", specBody); code != http.StatusBadRequest {
		t.Fatalf("cold oversized submit = %d, want 400", code)
	}
	for _, spec := range []string{half1, half2} {
		waitState(t, s, submit(t, s, spec))
	}

	id := submit(t, s, specBody) // 4 jobs, all cached: admitted despite capacity 3
	if state := waitState(t, s, id); state != StateDone {
		t.Fatalf("state = %q", state)
	}
	_, st := do(t, s, "GET", "/v1/campaigns/"+id, "")
	if st["cached"].(float64) != 4 {
		t.Fatalf("cached = %v, want 4", st["cached"])
	}
	if r.Total() != 4 {
		t.Fatalf("%d simulations total, want 4 (halves only)", r.Total())
	}
}
