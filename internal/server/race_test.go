package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simtest"
)

// The daemon's concurrency hardening: hammer one server with identical
// and overlapping campaigns while clients cancel campaigns and tear
// down SSE streams mid-stream, then prove nothing leaked. This test is
// most valuable under `go test -race` (the CI race job runs it on every
// push), but the goroutine-leak half bites in every mode.

// overlappingSpecs share jobs pairwise, so concurrent submissions
// constantly collide on in-flight cache keys.
var overlappingSpecs = []string{
	`{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1,2],"cycles":1000}`,
	`{"workloads":["2W1"],"policies":["MFLUSH","FLUSH-S30"],"seeds":[2,3],"cycles":1000}`,
	`{"workloads":["2W1","2W3"],"policies":["ICOUNT"],"seeds":[1,3],"cycles":1000}`,
}

// TestConcurrentSubmitCancelSSEChurn drives many clients against one
// daemon: every client repeatedly submits a spec overlapping the other
// clients' specs, then either follows the SSE stream to the end,
// disconnects mid-stream, cancels the campaign, or just polls — all
// while the shared cache single-flights the overlapping jobs. The
// assertions: no request errors, every campaign settles, and — after a
// drain — the process is back to its pre-test goroutine count (SSE
// disconnects and cancellations must not leak handler or campaign
// goroutines).
func TestConcurrentSubmitCancelSSEChurn(t *testing.T) {
	before := runtime.NumGoroutine()

	r := simtest.New()
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 4, MaxQueuedJobs: 4096})
	ts := httptest.NewServer(s)
	client := ts.Client()

	const clients = 8
	const iterations = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c))) // deterministic per client
			for i := 0; i < iterations; i++ {
				spec := overlappingSpecs[rng.Intn(len(overlappingSpecs))]
				sub, err := postSpecErr(client, ts.URL, spec)
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				switch rng.Intn(4) {
				case 0: // follow the stream to the terminal event
					if err := consumeSSE(client, ts.URL+sub.EventsURL, -1); err != nil {
						t.Errorf("client %d: SSE: %v", c, err)
					}
				case 1: // disconnect mid-stream after one event
					if err := consumeSSE(client, ts.URL+sub.EventsURL, 1); err != nil {
						t.Errorf("client %d: SSE disconnect: %v", c, err)
					}
				case 2: // cancel the campaign, racing its execution
					req, _ := http.NewRequest("DELETE", ts.URL+sub.StatusURL, nil)
					resp, err := client.Do(req)
					if err != nil {
						t.Errorf("client %d: cancel: %v", c, err)
						return
					}
					resp.Body.Close()
				case 3: // plain status poll
					resp, err := client.Get(ts.URL + sub.StatusURL)
					if err != nil {
						t.Errorf("client %d: status: %v", c, err)
						return
					}
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()

	// Every campaign settles (cancelled ones included) once the gates
	// are gone; drain waits for all campaign goroutines.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain after churn: %v", err)
	}
	// No job ever ran twice despite the overlap storm.
	if r.Max() > 1 {
		t.Errorf("a job simulated %d times across overlapping campaigns", r.Max())
	}

	client.CloseIdleConnections()
	ts.Close()

	// Goroutine-leak check: with the server closed and drained, we must
	// settle back to the baseline (small slack for runtime background
	// goroutines). Mid-stream SSE disconnects are the classic leak here.
	simtest.WaitFor(t, 10*time.Second, func() bool {
		if runtime.NumGoroutine() <= before+3 {
			return true
		}
		runtime.GC() // nudge finalizer-held conns
		return false
	}, "goroutines leaked: %d before churn, %d after settling:\n%s",
		before, func() any { return runtime.NumGoroutine() }, func() any {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			return buf.String()
		})
}

// postSpecErr submits a spec over real HTTP, tolerating nothing.
func postSpecErr(client *http.Client, base, spec string) (submitResponse, error) {
	resp, err := client.Post(base+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		return submitResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return submitResponse{}, fmt.Errorf("submit = %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return submitResponse{}, err
	}
	return sub, nil
}

// consumeSSE reads the event stream: all the way to the server-side
// close when maxEvents < 0, or disconnecting (cancelling the request)
// after maxEvents events otherwise.
func consumeSSE(client *http.Client, url string, maxEvents int) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("SSE = %d", resp.StatusCode)
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() != "" {
			continue
		}
		events++ // blank line terminates one event
		if maxEvents >= 0 && events >= maxEvents {
			cancel() // mid-stream disconnect: the server must clean up
			return nil
		}
	}
	// A stream followed to the end terminates with the server closing
	// it after the terminal event; scanner errors from our own cancel
	// never reach here (we returned above).
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	if maxEvents < 0 && events == 0 {
		return fmt.Errorf("stream closed with no events")
	}
	return nil
}
