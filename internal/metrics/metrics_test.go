package metrics

import (
	"bytes"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fullRegistry builds a registry exercising every family kind the
// package offers — the conformance tests scrape it.
func fullRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("mflush_test_events_total", "Events seen.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("mflush_test_depth", "Current depth.")
	g.Set(7.5)
	h := r.Histogram("mflush_test_latency_seconds", "Op latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 3} {
		h.Observe(v)
	}
	r.CounterFunc("mflush_test_derived_total", "Derived monotonic state.", func() float64 { return 12 })
	r.GaugeFunc("mflush_test_derived_depth", "Derived state.", func() float64 { return -2.25 })
	gv := r.GaugeVec("mflush_test_fleet", "Fleet state.", "worker", "zone")
	gv.WithLabelValues("w2", "b").Set(2)
	gv.WithLabelValues(`quote"back\slash`, "line\nbreak").Set(1)
	fv := r.GaugeFuncVec("mflush_test_states", "Things per state.", "state")
	fv.Bind(func() float64 { return 4 }, "running")
	fv.Bind(func() float64 { return 1 }, "done")
	return r
}

// TestExpositionConformance scrapes a registry with every metric kind
// and runs the strict parser over it: every family must declare HELP
// and TYPE before its samples, label values must round-trip their
// escaping, and histograms must expose increasing le bounds, monotonic
// cumulative counts and a +Inf bucket equal to _count.
func TestExpositionConformance(t *testing.T) {
	var buf bytes.Buffer
	if _, err := fullRegistry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not conform: %v\noutput:\n%s", err, buf.String())
	}
	if len(fams) != 7 {
		t.Fatalf("parsed %d families, want 7", len(fams))
	}

	if v := fams["mflush_test_events_total"].Samples[0].Value; v != 42 {
		t.Errorf("counter = %v, want 42", v)
	}
	if v := fams["mflush_test_derived_depth"].Samples[0].Value; v != -2.25 {
		t.Errorf("gauge func = %v, want -2.25", v)
	}

	// Label escaping round-trips through the parser.
	found := false
	for _, s := range fams["mflush_test_fleet"].Samples {
		if s.Labels["worker"] == `quote"back\slash` && s.Labels["zone"] == "line\nbreak" {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label values did not round-trip:\n%s", buf.String())
	}

	// Histogram: 5 observations, bucketed {0.001: 1, 0.01: 3, 0.1: 4, +Inf: 5}.
	var bounds []string
	var cums []float64
	for _, s := range fams["mflush_test_latency_seconds"].Samples {
		if s.Name == "mflush_test_latency_seconds_bucket" {
			bounds = append(bounds, s.Labels["le"])
			cums = append(cums, s.Value)
		}
	}
	wantBounds := []string{"0.001", "0.01", "0.1", "+Inf"}
	wantCums := []float64{1, 3, 4, 5}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] || cums[i] != wantCums[i] {
			t.Fatalf("histogram buckets = %v %v, want %v %v", bounds, cums, wantBounds, wantCums)
		}
	}
}

// TestExpositionDeterministic asserts two scrapes render byte-identical
// output (families and children are pre-sorted; no map iteration leaks
// into the format).
func TestExpositionDeterministic(t *testing.T) {
	r := fullRegistry()
	var a, b bytes.Buffer
	if _, err := r.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("scrapes differ:\n%s\n----\n%s", a.String(), b.String())
	}
}

// TestParseExpositionRejects feeds the checker malformed expositions;
// each must be rejected (the checker guards the conformance tests, so
// a checker that accepts garbage would hide writer regressions).
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without declaration": "mflush_x_total 1\n",
		"TYPE without HELP":          "# TYPE mflush_x_total counter\nmflush_x_total 1\n",
		"unknown type":               "# HELP mflush_x_total h\n# TYPE mflush_x_total summary\nmflush_x_total 1\n",
		"bad name":                   "# HELP Bad-Name h\n# TYPE Bad-Name counter\nBad-Name 1\n",
		"bad value":                  "# HELP mflush_x_total h\n# TYPE mflush_x_total counter\nmflush_x_total one\n",
		"unterminated label":         "# HELP mflush_x h\n# TYPE mflush_x gauge\nmflush_x{a=\"b 1\n",
		"bad escape":                 "# HELP mflush_x h\n# TYPE mflush_x gauge\nmflush_x{a=\"\\t\"} 1\n",
		"duplicate family":           "# HELP mflush_x h\n# TYPE mflush_x gauge\nmflush_x 1\n# HELP mflush_x h\n# TYPE mflush_x gauge\nmflush_x 2\n",
		"declaration without samples": "# HELP mflush_x h\n# TYPE mflush_x gauge\n" +
			"# HELP mflush_y h\n# TYPE mflush_y gauge\nmflush_y 1\n",
		"histogram without +Inf": "# HELP mflush_h h\n# TYPE mflush_h histogram\n" +
			"mflush_h_bucket{le=\"1\"} 1\nmflush_h_sum 1\nmflush_h_count 1\n",
		"histogram non-monotonic": "# HELP mflush_h h\n# TYPE mflush_h histogram\n" +
			"mflush_h_bucket{le=\"1\"} 3\nmflush_h_bucket{le=\"2\"} 2\nmflush_h_bucket{le=\"+Inf\"} 3\nmflush_h_sum 1\nmflush_h_count 3\n",
		"histogram inf != count": "# HELP mflush_h h\n# TYPE mflush_h histogram\n" +
			"mflush_h_bucket{le=\"1\"} 1\nmflush_h_bucket{le=\"+Inf\"} 2\nmflush_h_sum 1\nmflush_h_count 3\n",
		"histogram bounds decreasing": "# HELP mflush_h h\n# TYPE mflush_h histogram\n" +
			"mflush_h_bucket{le=\"2\"} 1\nmflush_h_bucket{le=\"1\"} 1\nmflush_h_bucket{le=\"+Inf\"} 1\nmflush_h_sum 1\nmflush_h_count 1\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition([]byte(in)); err == nil {
			t.Errorf("%s: accepted malformed exposition:\n%s", name, in)
		}
	}
}

// TestValidName pins the naming scheme the registry enforces.
func TestValidName(t *testing.T) {
	for _, ok := range []string{"mflush_cache_hits_total", "a", "_x", "x9_y"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "9x", "Hits", "mflush-cache", "a.b", "a:b", "héllo"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

// TestRegisterPanics asserts assembly-time mistakes fail loudly.
func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("mflush_once_total", "x")
	expectPanic("duplicate name", func() { r.Gauge("mflush_once_total", "x") })
	expectPanic("invalid name", func() { r.Counter("Bad-Name", "x") })
	expectPanic("invalid label", func() { r.GaugeVec("mflush_l", "x", "Bad-Label") })
	expectPanic("unsorted buckets", func() { r.Histogram("mflush_h_seconds", "x", []float64{1, 1}) })
	v := r.GaugeVec("mflush_v", "x", "a", "b")
	expectPanic("label arity", func() { v.WithLabelValues("only-one") })
}

// TestNilReceivers asserts every update method is a safe no-op on nil —
// the property that lets optional instrumentation skip nil checks.
func TestNilReceivers(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	g.Inc()
	g.Dec()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
}

// TestVecDelete asserts deleted series leave the exposition and that
// recreation starts fresh.
func TestVecDelete(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("mflush_live", "x", "id")
	gv.WithLabelValues("a").Set(1)
	gv.WithLabelValues("b").Set(2)
	gv.Delete("a")
	var buf bytes.Buffer
	r.WriteTo(&buf)
	if strings.Contains(buf.String(), `id="a"`) {
		t.Fatalf("deleted series still exposed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `id="b"`) {
		t.Fatalf("surviving series missing:\n%s", buf.String())
	}
	if v := gv.WithLabelValues("a").Value(); v != 0 {
		t.Fatalf("recreated series = %v, want 0", v)
	}
}

// TestHandler asserts the HTTP surface sets the exposition content type.
func TestHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	fullRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", got)
	}
	if _, err := ParseExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("handler body does not conform: %v", err)
	}
}

// TestGaugeAddConcurrent asserts the CAS loop loses no updates.
func TestGaugeAddConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("mflush_sum", "x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
}

// TestRegistryRace hammers registration, updates, vec churn and scrapes
// concurrently; it exists to run under -race (make racetest / CI).
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mflush_race_total", "x")
	g := r.Gauge("mflush_race_depth", "x")
	h := r.Histogram("mflush_race_seconds", "x", DefBuckets)
	gv := r.GaugeVec("mflush_race_fleet", "x", "id")
	r.GaugeFunc("mflush_race_fn", "x", func() float64 { return float64(c.Value()) })
	ids := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(3)
		id := ids[i]
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(j) / 1000)
				gv.WithLabelValues(id).Set(float64(j))
				if j%50 == 0 {
					gv.Delete(id)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				if _, err := r.WriteTo(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := r.WriteTo(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExposition(buf.Bytes()); err != nil {
		t.Fatalf("post-race exposition does not conform: %v\n%s", err, buf.String())
	}
}

// TestUpdateAllocs pins the hot-path update cost at zero allocations:
// the per-sample and per-WAL-append instrumentation must be free to
// call from the simulator's cycle-scale paths.
func TestUpdateAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mflush_a_total", "x")
	g := r.Gauge("mflush_a_depth", "x")
	h := r.Histogram("mflush_a_seconds", "x", DefBuckets)
	child := r.GaugeVec("mflush_a_fleet", "x", "id").WithLabelValues("w1")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1.5)
		h.Observe(0.003)
		child.Set(2)
	}); n != 0 {
		t.Fatalf("metric updates allocate %.1f times per run, want 0", n)
	}
}

// TestScrapeAllocs pins the O(1)-alloc scrape: rendering a large
// registry must not allocate per family or per child (pre-sorted state,
// reused buffers). The bound is a small constant — and, decisively, the
// same constant for a registry 10x the size.
func TestScrapeAllocs(t *testing.T) {
	build := func(families int) *Registry {
		r := NewRegistry()
		names := []string{
			"mflush_s%c_total", "mflush_s%c_depth", "mflush_s%c_seconds",
		}
		_ = names
		for i := 0; i < families; i++ {
			suffix := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
			r.Counter("mflush_s_"+suffix+"_total", "x").Add(uint64(i))
			r.Gauge("mflush_s_"+suffix+"_depth", "x").Set(float64(i))
			h := r.Histogram("mflush_s_"+suffix+"_seconds", "x", DefBuckets)
			h.Observe(0.01)
			gv := r.GaugeVec("mflush_s_"+suffix+"_fleet", "x", "id")
			gv.WithLabelValues("w1").Set(1)
			gv.WithLabelValues("w2").Set(2)
		}
		return r
	}
	allocs := func(r *Registry) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := r.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(build(5)), allocs(build(50))
	// One bufio.Writer + its buffer per scrape is the O(1) budget;
	// anything scaling with registry size fails the second bound.
	if small > 4 {
		t.Fatalf("scrape of small registry allocates %.1f, want <= 4", small)
	}
	if large > small {
		t.Fatalf("scrape allocations grow with registry size: %.1f (5 families) vs %.1f (50 families)", small, large)
	}
}

// TestHistogramObserve pins bucket edges: a value equal to a bound
// lands in that bound's bucket (le is inclusive).
func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mflush_edge_seconds", "x", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(2.5)
	var buf bytes.Buffer
	r.WriteTo(&buf)
	fams, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fams["mflush_edge_seconds"].Samples {
		if s.Name == "mflush_edge_seconds_bucket" && s.Labels["le"] == "1" && s.Value != 1 {
			t.Fatalf("le=1 bucket = %v, want 1 (bounds are inclusive)", s.Value)
		}
	}
	if h.Count() != 2 || math.Abs(h.Sum()-3.5) > 1e-9 {
		t.Fatalf("count/sum = %d/%v, want 2/3.5", h.Count(), h.Sum())
	}
}
