// Package metrics is the runtime observability spine of the mflush
// service layer: a dependency-free, concurrency-safe metrics registry
// (counters, gauges, fixed-bucket histograms, labeled families, and
// function-backed metrics for state that already lives elsewhere) with
// Prometheus text-format exposition. mflushd serves a Registry at
// /metrics, mflushworker behind -metrics-addr; ARCHITECTURE.md's
// Observability section documents the design and API.md tables every
// metric the binaries register.
//
// Two properties shape the implementation:
//
//   - Updates are wait-free: Counter.Add, Gauge.Set and
//     Histogram.Observe are single atomic operations with zero
//     allocations, so the simulator's per-sample and the WAL's per-append
//     hot paths can be instrumented without a measurable cost. Metric
//     methods are also nil-receiver-safe no-ops, so optional
//     instrumentation needs no nil checks at every call site.
//
//   - Scrapes allocate O(1), independent of how many families or
//     children are registered: families are kept sorted at registration
//     time and children at insertion time, so WriteTo walks pre-sorted
//     state into a reused buffer instead of building and sorting a
//     snapshot per scrape. TestScrapeAllocs pins this down.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric kinds, as emitted in # TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// DefBuckets are the default latency buckets (seconds) for Histogram
// families observing I/O durations — spanning 10µs fsyncs to multi-
// second stalls. Callers with different dynamic ranges pass their own.
var DefBuckets = []float64{
	0.00001, 0.000025, 0.0001, 0.00025, 0.001, 0.0025,
	0.01, 0.025, 0.1, 0.25, 1, 2.5,
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; the zero
// value is not usable — create with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families []*family          //mflush:guarded-by mu
	byName   map[string]*family //mflush:guarded-by mu

	// scratch is the scrape buffer, reused across WriteTo calls (one
	// scrape at a time takes it; concurrent scrapes fall back to a
	// fresh buffer rather than blocking).
	scratch   []byte //mflush:guarded-by scratchMu
	scratchMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family: a kind, a help line, a label
// schema, and its children sorted by label values.
type family struct {
	name   string
	help   string
	kind   string
	labels []string

	mu       sync.Mutex
	children []*child          //mflush:guarded-by mu
	index    map[string]*child //mflush:guarded-by mu
}

// child is one sample series within a family: a concrete metric or a
// function evaluated at scrape time.
type child struct {
	values []string // label values, aligned with family.labels
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// register creates (and returns) a family, panicking on an invalid or
// duplicate name — registration happens at process assembly, where a
// bad name is a programming error no caller would handle.
func (r *Registry) register(name, help, kind string, labels []string, buckets []float64) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q (want snake_case: [a-z_][a-z0-9_]*)", name))
	}
	for _, l := range labels {
		if !ValidName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q in family %s", l, name))
		}
	}
	if kind == kindHistogram {
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("metrics: histogram %s buckets not strictly increasing at %v", name, buckets[i]))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %s", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: labels,
		index:  make(map[string]*child),
	}
	i := sort.Search(len(r.families), func(i int) bool { return r.families[i].name >= name })
	r.families = append(r.families, nil)
	copy(r.families[i+1:], r.families[i:])
	r.families[i] = f
	r.byName[name] = f
	return f
}

// ValidName reports whether s is a legal metric or label name in this
// registry's restricted scheme: snake_case ASCII ([a-z_][a-z0-9_]*).
// This is stricter than Prometheus (which also allows colons and
// uppercase) on purpose — the repo's naming lint holds every registered
// family to it.
func ValidName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_', c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// child fetches or creates the series for the given label values,
// building the concrete metric with mk.
func (f *family) child(values []string, mk func() *child) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.index[key]; ok {
		return ch
	}
	ch := mk()
	ch.values = append([]string(nil), values...)
	i := sort.Search(len(f.children), func(i int) bool {
		return !lessValues(f.children[i].values, ch.values)
	})
	f.children = append(f.children, nil)
	copy(f.children[i+1:], f.children[i:])
	f.children[i] = ch
	f.index[key] = ch
	return ch
}

// delete removes the series for the given label values, if present.
func (f *family) delete(values []string) {
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.index[key]
	if !ok {
		return
	}
	delete(f.index, key)
	for i, c := range f.children {
		if c == ch {
			f.children = append(f.children[:i], f.children[i+1:]...)
			return
		}
	}
}

// lessValues orders label-value tuples lexicographically.
func lessValues(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ---------------------------------------------------------------------
// Concrete metrics. All update methods are wait-free single atomics,
// allocate nothing, and are no-ops on a nil receiver — optional
// instrumentation stays branch-free at the call site.

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//mflush:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//mflush:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//mflush:hotpath
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (CAS loop; contended adds retry).
//
//mflush:hotpath
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one.
//
//mflush:hotpath
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
//
//mflush:hotpath
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in increasing order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative), +1 slot for +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value.
//
//mflush:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ---------------------------------------------------------------------
// Registration API.

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	c := &Counter{}
	f.child(nil, func() *child { return &child{c: c} })
	return c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	g := &Gauge{}
	f.child(nil, func() *child { return &child{g: g} })
	return g
}

// Histogram registers and returns an unlabeled fixed-bucket histogram.
// Buckets are upper bounds, strictly increasing; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, buckets)
	h := newHistogram(buckets)
	f.child(nil, func() *child { return &child{h: h} })
	return h
}

// CounterFunc registers a counter whose value is fn(), evaluated at
// scrape time — for monotonic state another layer already tracks (the
// cache's hit counters, the coordinator's requeue count). fn runs with
// the family lock held; it must not call back into this registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, nil, nil)
	f.child(nil, func() *child { return &child{fn: fn} })
}

// GaugeFunc registers a gauge whose value is fn(), evaluated at scrape
// time. The same locking caveat as CounterFunc applies.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.child(nil, func() *child { return &child{fn: fn} })
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels, nil)}
}

// GaugeFuncVec registers a labeled gauge family whose children are
// functions bound with Bind — one family exposing several pieces of
// computed state (campaigns by lifecycle state, say).
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *FuncVec {
	return &FuncVec{fam: r.register(name, help, kindGauge, labels, nil)}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// WithLabelValues returns the gauge for the given label values,
// creating it on first use. Hot paths should call this once and retain
// the child: resolution joins the values into a lookup key (one small
// allocation) and takes the family lock.
func (v *GaugeVec) WithLabelValues(values ...string) *Gauge {
	return v.fam.child(values, func() *child { return &child{g: &Gauge{}} }).g
}

// Delete drops the series for the given label values — the cardinality
// valve for label sets that come and go (campaign IDs, worker names).
func (v *GaugeVec) Delete(values ...string) { v.fam.delete(values) }

// FuncVec is a labeled family of scrape-time functions.
type FuncVec struct{ fam *family }

// Bind registers fn as the series for the given label values. fn runs
// with the family lock held at scrape time; it must not call back into
// this registry.
func (v *FuncVec) Bind(fn func() float64, values ...string) {
	v.fam.child(values, func() *child { return &child{fn: fn} })
}

// ---------------------------------------------------------------------
// Exposition.

// Names returns the sorted names of every registered family — the
// surface the repository's metrics naming lint walks.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.families))
	for i, f := range r.families {
		names[i] = f.name
	}
	return names
}

// Handler returns an http.Handler serving the registry in Prometheus
// text exposition format — the body behind mflushd's /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// countingWriter tracks bytes for WriteTo's io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo renders every family in Prometheus text format: # HELP and
// # TYPE lines, then one sample line per child (histograms expand to
// cumulative _bucket lines plus _sum and _count). Families are written
// in name order and children in label order, both maintained at
// registration, so a scrape allocates O(1) regardless of registry size.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<14)
	scratch := r.takeScratch()
	defer r.putScratch(scratch)

	r.mu.RLock()
	families := r.families // append-only; safe to iterate after unlock
	r.mu.RUnlock()

	for _, f := range families {
		if err := f.write(bw, scratch); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// takeScratch borrows the registry's reusable number-formatting buffer,
// or mints a fresh one when a concurrent scrape holds it.
func (r *Registry) takeScratch() []byte {
	r.scratchMu.Lock()
	s := r.scratch
	r.scratch = nil
	r.scratchMu.Unlock()
	if s == nil {
		s = make([]byte, 0, 64)
	}
	return s
}

func (r *Registry) putScratch(s []byte) {
	r.scratchMu.Lock()
	if r.scratch == nil {
		r.scratch = s[:0]
	}
	r.scratchMu.Unlock()
}

// write renders one family under its lock (scrape-time fns run here).
// A vec family whose every series has been deleted (or none created
// yet) is skipped entirely: a HELP/TYPE declaration with no samples is
// what an empty family would otherwise render as, and scrapers treat
// the family as absent either way.
func (f *family) write(bw *bufio.Writer, scratch []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.children) == 0 {
		return nil
	}
	bw.WriteString("# HELP ")
	bw.WriteString(f.name)
	bw.WriteByte(' ')
	writeEscaped(bw, f.help, false)
	bw.WriteString("\n# TYPE ")
	bw.WriteString(f.name)
	bw.WriteByte(' ')
	bw.WriteString(f.kind)
	bw.WriteByte('\n')

	for _, ch := range f.children {
		if ch.h != nil {
			writeHistogram(bw, scratch, f.name, ch.h)
			continue
		}
		var v float64
		switch {
		case ch.c != nil:
			v = float64(ch.c.Value())
		case ch.g != nil:
			v = ch.g.Value()
		case ch.fn != nil:
			v = ch.fn()
		}
		writeSample(bw, scratch, f.name, "", f.labels, ch.values, v)
	}
	return nil
}

// infLabel is the +Inf bucket bound, pre-rendered.
var infLabel = []byte("+Inf")

// writeHistogram renders the cumulative bucket lines plus sum and count
// of an (always unlabeled) histogram. The le bound is formatted into
// scratch and written before scratch is reused for the value, so the
// aliasing is safe (bufio copies on Write).
func writeHistogram(bw *bufio.Writer, scratch []byte, name string, h *Histogram) {
	var cum uint64
	for i, upper := range h.upper {
		cum += h.counts[i].Load()
		le := strconv.AppendFloat(scratch[:0], upper, 'g', -1, 64)
		writeSampleLe(bw, scratch, name, le, float64(cum))
	}
	cum += h.counts[len(h.upper)].Load()
	writeSampleLe(bw, scratch, name, infLabel, float64(cum))
	writeSample(bw, scratch, name, "_sum", nil, nil, h.Sum())
	writeSample(bw, scratch, name, "_count", nil, nil, float64(h.count.Load()))
}

// writeSampleLe writes one _bucket line, whose only label is le.
func writeSampleLe(bw *bufio.Writer, scratch []byte, name string, le []byte, v float64) {
	bw.WriteString(name)
	bw.WriteString(`_bucket{le="`)
	bw.Write(le)
	bw.WriteString(`"} `)
	writeFloat(bw, scratch, v)
	bw.WriteByte('\n')
}

// writeSample writes one plain sample line: name+suffix, labels, value.
func writeSample(bw *bufio.Writer, scratch []byte, name, suffix string, labels, values []string, v float64) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labels) > 0 {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l)
			bw.WriteString(`="`)
			writeEscaped(bw, values[i], true)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	writeFloat(bw, scratch, v)
	bw.WriteByte('\n')
}

// writeFloat renders v without allocating (scratch is reused).
func writeFloat(bw *bufio.Writer, scratch []byte, v float64) {
	scratch = strconv.AppendFloat(scratch[:0], v, 'g', -1, 64)
	bw.Write(scratch)
}

// writeEscaped writes s with exposition-format escaping: backslash and
// newline always; double quotes additionally inside label values.
func writeEscaped(bw *bufio.Writer, s string, label bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			bw.WriteString(`\\`)
		case '\n':
			bw.WriteString(`\n`)
		case '"':
			if label {
				bw.WriteString(`\"`)
			} else {
				bw.WriteByte(c)
			}
		default:
			bw.WriteByte(c)
		}
	}
}
