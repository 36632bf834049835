package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
)

// Fresh service campaigns use API.md's example job size: 5k warm-up and
// 20k measured cycles. The jobs are small on purpose, so the service
// layers' share of each campaign's latency is visible.
const serviceWarmup, serviceCycles = 5000, 20000

// serviceClients and serviceWorkers match the 2-CPU machine the
// benchmark was calibrated on: two closed-loop clients on two keep-alive
// connections, and two in-process fleet workers of capacity 1.
const serviceClients, serviceWorkers = 2, 2

// opHeader carries a traced client operation's ID to the server-side
// span wrapper.
const opHeader = "X-Mflushperf-Op"

// serviceSpec is the campaign of operation i of client c: even
// operations submit 2W3 × {ICOUNT, MFLUSH} × two fresh seeds, odd ones
// resubmit the previous operation's campaign exactly, which the result
// cache serves without simulating.
func serviceSpec(e *env, c, i int) campaign.Spec {
	fresh := i - i%2
	warmup, cycles := e.window(serviceWarmup, serviceCycles)
	return campaign.Spec{
		Workloads: []string{"2W3"}, Policies: []string{"ICOUNT", "MFLUSH"},
		Seeds:  []uint64{opSeed(e.seed, c, fresh, 0), opSeed(e.seed, c, fresh, 1)},
		Cycles: cycles, Warmup: warmup,
	}
}

func serviceWorkload() *workload {
	w := &workload{name: "service", clients: serviceClients}
	w.jobs = func(e *env, c, i int) []campaign.Job { return specJobs(serviceSpec(e, c, i)) }
	w.setup = startService
	return w
}

// serviceInstance is an in-process mflushd in cluster mode — a store on
// disk, a durable coordinator whose WAL lives in a state directory, a
// loopback listener — with its worker fleet and the load generator's
// HTTP client.
type serviceInstance struct {
	e      *env
	tr     *tracer
	store  *campaign.Store
	coord  *cluster.Coordinator
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	workerConns []*http.Transport

	// prev holds each client's last fresh result CSV, which its next
	// (resubmitted) campaign must reproduce. Clients only touch their
	// own element.
	prev [setupClient + 1][]byte
	// want is the CSV a local campaign.Scheduler run of client 0's first
	// campaign produces.
	want []byte
}

func startService(e *env, tr *tracer) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "service-")
	if err != nil {
		return nil, err
	}
	store, err := campaign.OpenStore(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, err
	}
	coord, err := cluster.OpenCoordinator(cluster.Config{
		StateDir: filepath.Join(dir, "state"),
		Persisted: func(key string) bool {
			_, ok := store.Get(key)
			return ok
		},
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &serviceInstance{e: e, tr: tr, store: store, coord: coord, served: make(chan error, 1)}
	s.srv = server.New(server.Config{Store: store, Cluster: coord, Workers: serviceWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		store.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: tr.handler(s.srv)}
	go func() { s.served <- s.hs.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for k := 0; k < serviceWorkers; k++ {
		conns := &http.Transport{}
		s.workerConns = append(s.workerConns, conns)
		name := fmt.Sprintf("w%d", k)
		wk := &cluster.Worker{
			Base: s.base, Name: name, Capacity: 1, Runner: tr.soloRunner(),
			Client: &http.Client{Transport: tr.transport(name, conns)},
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			_ = wk.Run(ctx) // only a cancellation before registering errors
		}()
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients, MaxConnsPerHost: serviceClients}}
	for deadline := time.Now().Add(10 * time.Second); s.coord.LiveWorkers() < serviceWorkers; {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("service: workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	// The warm-up: one fresh campaign and its cache-hit resubmission.
	for i := 0; i < 2; i++ {
		if _, err := s.op(setupClient, i); err != nil {
			s.close()
			return nil, fmt.Errorf("service warm-up: %w", err)
		}
	}
	return s, nil
}

// prepare runs client 0's first campaign through a local scheduler: the
// fleet-served CSV must be byte-identical to it.
func (s *serviceInstance) prepare() error {
	recs, err := (&campaign.Scheduler{}).Run(context.Background(), specJobs(serviceSpec(s.e, 0, 0)), nil)
	if err != nil {
		return err
	}
	var csv bytes.Buffer
	if err := campaign.WriteCSV(&csv, campaign.Aggregate(recs)); err != nil {
		return err
	}
	s.want = csv.Bytes()
	return nil
}

// campaignStatus mirrors the status the terminal SSE event carries.
type campaignStatus struct {
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`
	Cached    int    `json:"cached"`
	Failed    int    `json:"failed"`
	Error     string `json:"error"`
}

// op submits a campaign, follows its event stream to the terminal event
// and fetches the result CSV, checking each step.
func (s *serviceInstance) op(c, i int) (opResult, error) {
	spec := serviceSpec(s.e, c, i)
	hit := i%2 == 1
	id := opID(c, i)
	body, err := json.Marshal(spec)
	if err != nil {
		return opResult{}, err
	}
	t := time.Now()
	jobs, err := spec.Jobs()
	if err != nil {
		return opResult{}, err
	}
	s.tr.observe("campaign.spec_jobs", time.Since(t))

	start := time.Now()
	done := s.tr.beginOp(id, jobs, !hit)
	var sub struct {
		EventsURL string `json:"events_url"`
		ResultURL string `json:"result_url"`
	}
	t = time.Now()
	if err := s.call(id, "POST", "/v1/campaigns", body, http.StatusAccepted, &sub); err != nil {
		return opResult{}, fmt.Errorf("submit: %w", err)
	}
	s.tr.timed(id, "server.submit", t)
	st, err := s.follow(id, sub.EventsURL)
	if err != nil {
		return opResult{}, err
	}
	switch {
	case st.State != "done" || st.Completed != st.Jobs || st.Failed != 0:
		return opResult{}, fmt.Errorf("campaign ended %s (%d/%d completed, %d failed): %s", st.State, st.Completed, st.Jobs, st.Failed, st.Error)
	case hit && st.Cached != st.Jobs:
		return opResult{}, fmt.Errorf("resubmitted campaign: %d of %d jobs cached", st.Cached, st.Jobs)
	case !hit && st.Cached != 0:
		return opResult{}, fmt.Errorf("fresh campaign: %d jobs served from the cache", st.Cached)
	}
	var csv bytes.Buffer
	t = time.Now()
	if err := s.call(id, "GET", sub.ResultURL+"?format=csv", nil, http.StatusOK, &csv); err != nil {
		return opResult{}, fmt.Errorf("result: %w", err)
	}
	s.tr.timed(id, "server.result", t)
	lat := time.Since(start)
	done()

	out := csv.Bytes()
	var cycles uint64
	if hit {
		if !bytes.Equal(out, s.prev[c]) {
			return opResult{}, fmt.Errorf("cache-hit CSV differs from the fresh campaign it resubmits")
		}
	} else {
		s.prev[c] = out
		for _, j := range jobs {
			cycles += j.Warmup + j.Cycles
		}
	}
	if c == 0 && i == 0 && !bytes.Equal(out, s.want) {
		return opResult{}, fmt.Errorf("fleet CSV differs from a local scheduler run")
	}
	return opResult{latency: lat, hit: hit, jobs: st.Jobs, simCycles: cycles, output: out}, nil
}

// call issues one request; out is a *bytes.Buffer for the raw body or a
// JSON target.
func (s *serviceInstance) call(op, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if s.tr != nil {
		req.Header.Set(opHeader, op)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		buf.Write(data)
		return nil
	}
	return json.Unmarshal(data, out)
}

// follow reads a campaign's event stream until its terminal event.
func (s *serviceInstance) follow(op, path string) (campaignStatus, error) {
	req, err := http.NewRequest("GET", s.base+path, nil)
	if err != nil {
		return campaignStatus{}, err
	}
	if s.tr != nil {
		req.Header.Set(opHeader, op)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return campaignStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return campaignStatus{}, fmt.Errorf("events: %s", resp.Status)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event == "status" || event == "progress" || event == "sample" {
			continue
		}
		s.tr.sseDone(op, time.Now())
		var st campaignStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return campaignStatus{}, err
		}
		// Drain the ended stream so its connection is reused.
		_, _ = io.Copy(io.Discard, resp.Body)
		return st, nil
	}
	if err := sc.Err(); err != nil {
		return campaignStatus{}, err
	}
	return campaignStatus{}, fmt.Errorf("event stream ended without a terminal event")
}

func (s *serviceInstance) check() error { return nil }

// scrape reads the daemon's own counters at the end of a traced pass:
// WAL latencies and compactions and issued leases from /metrics, the
// fleet's requeues from /v1/workers, cache decisions from /v1/cache.
func (s *serviceInstance) scrape(tr *tracer) error {
	var text bytes.Buffer
	if err := s.call("", "GET", "/metrics", nil, http.StatusOK, &text); err != nil {
		return err
	}
	fams, err := metrics.ParseExposition(text.Bytes())
	if err != nil {
		return err
	}
	value := func(sample string) float64 {
		name := strings.TrimSuffix(strings.TrimSuffix(sample, "_sum"), "_count")
		if f := fams[name]; f != nil {
			for _, smp := range f.Samples {
				if smp.Name == sample {
					return smp.Value
				}
			}
		}
		return 0
	}
	var fleet cluster.FleetResponse
	if err := s.call("", "GET", "/v1/workers", nil, http.StatusOK, &fleet); err != nil {
		return err
	}
	var cache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	}
	if err := s.call("", "GET", "/v1/cache", nil, http.StatusOK, &cache); err != nil {
		return err
	}
	perCall := func(name string) float64 {
		if n := value(name + "_count"); n > 0 {
			return value(name+"_sum") / n * 1000
		}
		return 0
	}
	tr.setCounts(map[string]float64{
		"cluster.workers":         serviceWorkers,
		"cluster.wal_append_ms":   perCall("mflush_wal_append_seconds"),
		"cluster.wal_fsync_ms":    perCall("mflush_wal_fsync_seconds"),
		"cluster.wal_compactions": value("mflush_wal_compactions_total"),
		"cluster.leases_issued":   value("mflush_leases_issued_total"),
		"cluster.requeues":        float64(fleet.Requeues),
		"server.cache_hits":       cache.Hits,
		"server.cache_misses":     cache.Misses,
	})
	return nil
}

// close stops the fleet (workers drain and deregister while the daemon
// still serves), drains the daemon, closes the coordinator — which ends
// the long polls of lease requests the stopped workers abandoned, so
// the listener shuts down at once — then the listener and the store.
func (s *serviceInstance) close() error {
	s.stopWorkers()
	s.workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.coord.Close()
	if serr := s.hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.client.CloseIdleConnections()
	for _, t := range s.workerConns {
		t.CloseIdleConnections()
	}
	return err
}
