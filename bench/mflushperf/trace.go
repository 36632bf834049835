package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// The traced run times the calls into every layer from outside the
// program: it drives the simulator through Open/Step/ResetMeasurement/
// Finish itself (as the Runner and GangRunner of schedulers and
// workers), wraps the workers' HTTP transport and the daemon's handler,
// and times the campaign functions the benchmark calls. Spans stay in
// memory and are written out when the run ends. A nil *tracer is the
// untraced run: every method is then a no-op or calls straight through.

// span is one timed interval: a layer call made for an operation.
type span struct {
	Op     string `json:"op_id"`
	ID     int64  `json:"span_id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace is one operation of the traced pass.
type opTrace struct {
	root       int64
	start, end time.Time
	keys       []string
	fresh      bool
	// sseDone is when the client received the terminal event.
	sseDone time.Time
}

// simCall is one Runner or GangRunner call.
type simCall struct {
	start, end time.Time
	keys       []string
	results    []*sim.Result
}

type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	next      int64
	spans     []span
	ops       map[string]*opTrace
	keyOp     map[string]string // job key -> operation ID
	calls     []simCall
	obs       map[string][]time.Duration
	counts    map[string]float64
	passStart time.Time
	passEnd   time.Time
	errs      []error
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		ops:    make(map[string]*opTrace),
		keyOp:  make(map[string]string),
		obs:    make(map[string][]time.Duration),
		counts: make(map[string]float64),
	}
}

// record stores a finished span; id 0 allocates its ID.
func (t *tracer) record(id int64, op string, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		id = t.newIDLocked()
	}
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) newIDLocked() int64 {
	t.next++
	return t.next
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newIDLocked()
}

// observe adds one duration sample under name.
func (t *tracer) observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], d)
	t.mu.Unlock()
}

// timed records a span of operation op that started at start and ends
// now, and observes its duration.
func (t *tracer) timed(op, name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.record(0, op, t.rootOf(op), name, start, end)
	t.observe(name, end.Sub(start))
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) setCounts(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range m {
		t.counts[k] = v
	}
}

func (t *tracer) fail(err error) {
	t.mu.Lock()
	t.errs = append(t.errs, err)
	t.mu.Unlock()
}

// rootOf returns operation op's root span ID, 0 when op is unknown.
func (t *tracer) rootOf(op string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if o := t.ops[op]; o != nil {
		return o.root
	}
	return 0
}

// beginOp starts operation op over jobs and returns the function that
// ends it. It times each job's key and wire round trip — the campaign
// layer's per-job work — and maps the keys to op, so sim calls made for
// those jobs anywhere in the process are attributed to it.
func (t *tracer) beginOp(op string, jobs []campaign.Job, fresh bool) func() {
	if t == nil {
		return func() {}
	}
	o := &opTrace{fresh: fresh}
	for _, j := range jobs {
		start := time.Now()
		key := j.Key()
		t.observe("campaign.job_key", time.Since(start))
		start = time.Now()
		err := wireRoundTrip(j, key)
		t.observe("campaign.wire_roundtrip", time.Since(start))
		if err != nil {
			t.fail(err)
		}
		o.keys = append(o.keys, key)
	}
	t.mu.Lock()
	o.root = t.newIDLocked()
	o.start = time.Now()
	t.ops[op] = o
	for _, k := range o.keys {
		t.keyOp[k] = op
	}
	t.mu.Unlock()
	return func() {
		o.end = time.Now()
		t.record(o.root, op, 0, "op", o.start, o.end)
	}
}

// wireRoundTrip sends j through the cluster's wire form and back.
func wireRoundTrip(j campaign.Job, key string) error {
	data, err := json.Marshal(j.Wire())
	if err != nil {
		return err
	}
	var w campaign.WireJob
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	back, err := w.Job()
	if err != nil {
		return err
	}
	if back.Key() != key {
		return fmt.Errorf("wire round trip changed job %s to %s", key, back.Key())
	}
	return nil
}

// sseDone notes when operation op received its terminal event.
func (t *tracer) sseDone(op string, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if o := t.ops[op]; o != nil {
		o.sseDone = at
	}
	t.mu.Unlock()
}

// optionsKey recovers the campaign job key of a simulation's options.
// The benchmark's jobs carry no tweak, so the options hold every field
// the key covers.
func optionsKey(o sim.Options) string {
	return campaign.Job{
		Workload: o.Workload, Policy: o.Policy, Seed: o.Seed,
		Cycles: o.Cycles, Warmup: o.Warmup, Interval: o.Interval,
	}.Key()
}

// opOf returns the operation a job key belongs to and its root span.
func (t *tracer) opOf(key string) (string, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op, ok := t.keyOp[key]
	if !ok {
		return "setup", 0
	}
	return op, t.ops[op].root
}

// soloRunner returns the traced solo runner, nil (sim.Run) untraced.
func (t *tracer) soloRunner() func(sim.Options) (*sim.Result, error) {
	if t == nil {
		return nil
	}
	return t.runSolo
}

// gangRunner returns the traced gang runner, nil (sim.RunGang) untraced.
func (t *tracer) gangRunner() func([]sim.Options) ([]*sim.Result, error) {
	if t == nil {
		return nil
	}
	return t.runGang
}

// session is what runSolo and runGang drive: a Session or a GangSession.
type session struct {
	step    func(uint64)
	reset   func()
	finish  func() ([]*sim.Result, error)
	members uint64
}

// timedRun runs one sim call the way sim.Run and sim.RunGang do — open,
// warm-up, reset, measured window, finish — recording a span per call.
func (t *tracer) timedRun(keys []string, warmup, cycles uint64, open func() (session, error)) ([]*sim.Result, error) {
	op, parent := t.opOf(keys[0])
	run := t.newID()
	start := time.Now()
	s, err := open()
	t.observeSpan(op, run, "sim.open", start)
	if err != nil {
		return nil, err
	}
	stepTimed := func(n uint64) {
		begin := time.Now()
		s.step(n)
		end := time.Now()
		t.record(0, op, run, "sim.step", begin, end)
		t.add("sim.step_ns", float64(end.Sub(begin).Nanoseconds()))
		t.add("sim.step_member_cycles", float64(n*s.members))
	}
	if warmup > 0 {
		stepTimed(warmup)
		begin := time.Now()
		s.reset()
		t.record(0, op, run, "sim.reset", begin, time.Now())
	}
	stepTimed(cycles)
	fin := time.Now()
	results, err := s.finish()
	t.observeSpan(op, run, "sim.finish", fin)
	if err != nil {
		return nil, err
	}
	t.endCall(op, parent, run, start, keys, results)
	return results, nil
}

// runSolo is sim.Run made of its Session calls, each timed.
func (t *tracer) runSolo(o sim.Options) (*sim.Result, error) {
	if t == nil || o.Cycles == 0 || o.Interval > 0 {
		return sim.Run(o)
	}
	results, err := t.timedRun([]string{optionsKey(o)}, o.Warmup, o.Cycles, func() (session, error) {
		s, err := sim.Open(o)
		if err != nil {
			return session{}, err
		}
		finish := func() ([]*sim.Result, error) {
			res, err := s.Finish()
			return []*sim.Result{res}, err
		}
		return session{step: s.Step, reset: s.ResetMeasurement, finish: finish, members: 1}, nil
	})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// runGang is sim.RunGang made of its GangSession calls, each timed.
func (t *tracer) runGang(opts []sim.Options) ([]*sim.Result, error) {
	if len(opts) == 0 {
		return sim.RunGang(opts)
	}
	keys := make([]string, len(opts))
	for m, o := range opts {
		if o.Cycles == 0 || o.Interval > 0 || o.Cycles != opts[0].Cycles || o.Warmup != opts[0].Warmup {
			return sim.RunGang(opts) // the cases sim.RunGang rejects or samples
		}
		keys[m] = optionsKey(o)
	}
	return t.timedRun(keys, opts[0].Warmup, opts[0].Cycles, func() (session, error) {
		g, err := sim.OpenGang(opts)
		if err != nil {
			return session{}, err
		}
		return session{step: g.Step, reset: g.ResetMeasurement, finish: g.Finish, members: uint64(len(opts))}, nil
	})
}

// observeSpan records a child span of a sim call and observes it.
func (t *tracer) observeSpan(op string, parent int64, name string, start time.Time) {
	end := time.Now()
	t.record(0, op, parent, name, start, end)
	t.observe(name, end.Sub(start))
}

// endCall closes a sim call's span and books the call.
func (t *tracer) endCall(op string, parent, run int64, start time.Time, keys []string, results []*sim.Result) {
	end := time.Now()
	t.record(run, op, parent, "sim.run", start, end)
	t.observe("sim.run", end.Sub(start))
	t.mu.Lock()
	t.calls = append(t.calls, simCall{start: start, end: end, keys: keys, results: results})
	t.mu.Unlock()
}

// handler wraps the daemon so every request it serves is a span of the
// client operation named in its header (the fleet's requests carry none).
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		op := r.Header.Get(opHeader)
		if op == "" {
			op = "fleet"
		}
		t.record(0, op, t.rootOf(op), "server."+route(r), start, time.Now())
	})
}

// route names a daemon request for spans.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == "POST" && p == "/v1/campaigns":
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasSuffix(p, "/lease"):
		return "lease"
	case strings.HasSuffix(p, "/results"):
		return "results"
	}
	return "other"
}

// transport returns a worker's HTTP transport: base itself untraced,
// a timing wrapper traced.
func (t *tracer) transport(worker string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &timedTransport{t: t, op: "worker-" + worker, base: base}
}

// timedTransport times a worker's calls to the coordinator and sorts
// leases into granted, empty polls and heartbeats.
type timedTransport struct {
	t    *tracer
	op   string
	base http.RoundTripper
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	name := "cluster.other"
	var max int
	switch {
	case strings.HasSuffix(req.URL.Path, "/lease"):
		name = "cluster.lease"
		if req.GetBody != nil {
			if b, err := req.GetBody(); err == nil {
				var lr cluster.LeaseRequest
				if json.NewDecoder(b).Decode(&lr) == nil {
					max = lr.Max
				}
			}
		}
	case strings.HasSuffix(req.URL.Path, "/results"):
		name = "cluster.results"
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if name == "cluster.lease" {
		// Read the batch so an empty poll can be told from a grant; the
		// body is handed on unchanged.
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		if rerr != nil {
			return nil, rerr
		}
		var lr cluster.LeaseResponse
		switch {
		case max == 0:
			name = "cluster.heartbeat"
		case json.Unmarshal(data, &lr) == nil && len(lr.Jobs) == 0:
			name = "cluster.lease_empty"
			tt.t.add("cluster.empty_lease_polls", 1)
		default:
			tt.t.add("cluster.leases", 1)
		}
	}
	end := time.Now()
	tt.t.record(0, tt.op, 0, name, start, end)
	switch name {
	case "cluster.lease":
		tt.t.observe("cluster.lease_rtt", end.Sub(start))
	case "cluster.results":
		tt.t.observe("cluster.results_rtt", end.Sub(start))
	}
	return resp, nil
}

// zeroCommit runs jobs untimed with a one-cycle probe over their
// measured windows and counts the cycles in which the whole chip
// committed nothing. A probe switches Step to its per-cycle loop, which
// is why these runs are separate from the measured ones.
func (t *tracer) zeroCommit(jobs []campaign.Job) error {
	for _, j := range jobs {
		o := j.Options()
		s, err := sim.Open(o)
		if err != nil {
			return err
		}
		s.Step(o.Warmup)
		s.ResetMeasurement()
		var prev uint64
		zero := 0
		err = s.Observe(sim.Probe{Every: 1, Fn: func(sm *sim.Sample) {
			var total uint64
			for _, n := range sm.Committed {
				total += n
			}
			if total == prev {
				zero++
			}
			prev = total
		}})
		if err != nil {
			return err
		}
		s.Step(o.Cycles)
		if _, err := s.Finish(); err != nil {
			return err
		}
		t.add("sim.zero_commit_cycles", float64(zero))
		t.add("sim.probed_cycles", float64(o.Cycles))
	}
	return nil
}

// probeJobs picks four distinct jobs from the workload's first
// operations, spread over each operation's policies.
func probeJobs(w *workload, e *env) []campaign.Job {
	var out []campaign.Job
	seen := make(map[string]bool)
	for i := 0; len(out) < 4; i++ {
		js := w.jobs(e, 0, i)
		stride := max(len(js)/4, 1)
		for k := 0; k < len(js) && len(out) < 4; k += stride {
			if key := js[k].Key(); !seen[key] {
				seen[key] = true
				out = append(out, js[k])
			}
		}
	}
	return out
}

// tracedRun repeats the workload on a fresh instance with the tracer
// attached, checks that its outputs match the untraced pass, and sets
// the run's per-layer metrics.
func tracedRun(cfg runConfig, e *env, untraced *pass, untracedDigest string, res *result) error {
	tr := newTracer()
	_, inst, err := setUp(cfg.Workload, e, tr, 1)
	if err != nil {
		return err
	}
	dur := time.Duration(cfg.Seconds * float64(time.Second) / 2)
	tr.startPass()
	p := measure(inst, cfg.Workload.clients, dur, digestOps)
	tr.mu.Lock()
	tr.passEnd = time.Now()
	tr.mu.Unlock()
	var checkErr error
	if sc, ok := inst.(interface{ scrape(*tracer) error }); ok {
		checkErr = sc.scrape(tr)
	}
	if err := inst.check(); err != nil && checkErr == nil {
		checkErr = err
	}
	if err := inst.close(); err != nil && checkErr == nil {
		checkErr = err
	}
	if err := tr.zeroCommit(probeJobs(cfg.Workload, e)); err != nil && checkErr == nil {
		checkErr = err
	}
	st := p.stats()
	res.Attempted += st.attempted
	res.Failed += st.failed
	out := cfg.Out
	fmt.Fprintf(out, "traced ops %d jobs %d wall_s %.3f\n", st.attempted, st.jobs, p.wall.Seconds())
	if st.firstErr != nil {
		fmt.Fprintf(out, "error traced pass: %v\n", st.firstErr)
	}
	for _, err := range append(tr.errs, checkErr) {
		if err != nil {
			fmt.Fprintf(out, "error traced check: %v\n", err)
			res.Failed++
			res.Correct = false
		}
	}
	if sum, ok := p.digest(); !ok || sum != untracedDigest {
		fmt.Fprintf(out, "error traced outputs_digest %s differs from the untraced %s\n", sum, untracedDigest)
		res.Failed++
		res.Correct = false
	} else {
		fmt.Fprintf(out, "check traced outputs_digest equals the untraced one\n")
	}
	if !res.Correct {
		res.Failed = max(res.Failed, res.Attempted)
	}

	ust := untraced.stats()
	res.Metrics, res.extra = tr.layerMetrics()
	res.Metrics["trace.jobs_per_s_ratio"] = metric{
		(float64(st.jobs) / p.wall.Seconds()) / (float64(ust.jobs) / untraced.wall.Seconds()), "ratio"}

	path := cfg.SpansPath
	if path == "" {
		path = filepath.Join(cfg.WorkDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload.name, cfg.Seed))
	}
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans %s (%d)\n", path, len(tr.spans))
	return nil
}

// writeSpans writes every span as one JSON line, in ID order.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
