// Package obs is the reproduction's unified observability core: a
// zero-dependency (stdlib-only) metrics registry in the Prometheus
// data model. Counters, gauges and fixed-bucket histograms are grouped
// into named families, optionally split by label values; a Registry
// exposes every family in the Prometheus text exposition format
// (WriteTo, Handler) and as a structured snapshot for tests.
//
// The package is the read side of every subsystem's instrumentation:
// the simulation model (via its Observer seam), the lock managers, the
// network lock service and the executable engine all accept an optional
// *Registry and stay completely silent — and allocation-free on their
// hot paths — when none is attached. One registry may be shared across
// subsystems; family names are namespaced per package
// (granulock_sim_*, granulock_lockmgr_*, granulock_locksrv_*, ...). A
// count a layer already keeps is registered as a function that reads it
// at scrape time (NewCounterFunc, CounterVec.Func, NewGaugeFunc), never
// copied into a second store here.
//
// All metric operations are safe for concurrent use. Counter and gauge
// updates are single atomic operations; histogram observations are two
// atomics and a CAS loop on the sum.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind int

// The metric kinds of the Prometheus data model this package supports.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds; an implicit +Inf bucket catches everything above the last.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound, +Inf last
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample. NaN samples are dropped (they would
// poison the sum and match no bucket).
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x (le semantics)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// samples the way Prometheus' histogram_quantile does: it finds the
// bucket the rank q·count falls in and interpolates linearly between
// that bucket's bounds, the first bucket's lower bound being 0 (or the
// bound itself when it is not positive). A rank in the +Inf bucket
// reads the largest finite bound. An empty histogram reads 0.
func (h *Histogram) Quantile(q float64) float64 {
	cum, _, _ := h.snapshot()
	n := cum[len(cum)-1]
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	b := sort.Search(len(cum), func(i int) bool { return cum[i] > 0 && float64(cum[i]) >= rank })
	switch {
	case b >= len(h.bounds):
		return h.bounds[len(h.bounds)-1]
	case b == 0 && h.bounds[0] <= 0:
		return h.bounds[0]
	}
	lo, below := 0.0, int64(0)
	if b > 0 {
		lo, below = h.bounds[b-1], cum[b-1]
	}
	return lo + (h.bounds[b]-lo)*(rank-float64(below))/float64(cum[b]-below)
}

// snapshot returns the cumulative per-bound counts (le semantics,
// +Inf last), the total count and the sum, mutually consistent enough
// for exposition (Prometheus scrapes tolerate small skew).
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.buckets))
	running := int64(0)
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.Sum()
}

// DefBuckets is a general-purpose latency bucket ladder (roughly
// logarithmic over four decades); callers with known ranges should
// pass their own.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// ExpBuckets returns n buckets growing geometrically from start by
// factor: start, start·factor, ... Convenience for wide-range series.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad exponential buckets (start=%v factor=%v n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// child is one (label values → metric) entry of a family.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // a series read at exposition time, if set
}

// Family is one named metric family: every series sharing a name,
// help string, kind and label-name set.
type Family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// labelKey joins label values into a map key. The separator cannot
// appear in any reasonable label value; collisions only merge series,
// never corrupt memory.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// get returns the child for the given label values, creating it on
// first use. A child created with a non-nil fn is read by calling it at
// exposition time; an existing child keeps what it was created with.
func (f *Family) get(values []string, fn func() float64) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...), fn: fn}
		switch f.kind {
		case KindCounter:
			ch.c = &Counter{}
		case KindGauge:
			ch.g = &Gauge{}
		case KindHistogram:
			h := &Histogram{bounds: f.bounds}
			h.buckets = make([]atomic.Int64, len(f.bounds)+1)
			ch.h = h
		}
		f.children[key] = ch
	}
	return ch
}

// sortedChildren snapshots the children in label-value order, for
// deterministic exposition.
func (f *Family) sortedChildren() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, ch)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// CounterVec is a counter family split by labels.
type CounterVec struct{ f *Family }

// With returns the counter for the given label values (created on
// first use). The value pointer is stable: callers should look it up
// once and keep it, not call With on hot paths.
func (v CounterVec) With(values ...string) *Counter { return v.f.get(values, nil).c }

// Func registers the series for the given label values as fn,
// evaluated at exposition time as NewCounterFunc's is; With on it
// returns a counter nothing reads. A series that already exists keeps
// what it was registered with.
func (v CounterVec) Func(fn func() int64, values ...string) {
	v.f.get(values, func() float64 { return float64(fn()) })
}

// GaugeVec is a gauge family split by labels.
type GaugeVec struct{ f *Family }

// With returns the gauge for the given label values.
func (v GaugeVec) With(values ...string) *Gauge { return v.f.get(values, nil).g }

// HistogramVec is a histogram family split by labels.
type HistogramVec struct{ f *Family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(values ...string) *Histogram { return v.f.get(values, nil).h }

// Registry holds metric families and renders them. The zero value is
// not usable; create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// family registers (or re-fetches) a family. Registration is
// idempotent: asking again for the same name with the same kind and
// label set returns the existing family, so two subsystems sharing a
// registry may both declare the families they write. A name re-used
// with a different kind or label set is a programming error and
// panics.
func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *Family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q (metric %s)", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v%v, was %v%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &Family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil, nil).c
}

// NewCounterVec registers (or fetches) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.family(name, help, KindCounter, labels, nil)}
}

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil, nil).g
}

// NewGaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.family(name, help, KindGauge, labels, nil)}
}

// NewGaugeFunc registers a gauge evaluated at exposition time — for
// quantities the owner already tracks (open sessions, parked waiters)
// where a mirror would drift. Re-registering the same name keeps the
// first function.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, KindGauge, nil, nil).get(nil, fn)
}

// NewCounterFunc registers a counter evaluated at exposition time: the
// count its owner already keeps, read where it is kept instead of
// mirrored into a second store. fn must never decrease. Re-registering
// the same name keeps the first function.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	CounterVec{r.family(name, help, KindCounter, nil, nil)}.Func(fn)
}

// NewHistogram registers (or fetches) an unlabeled histogram with the
// given upper-bound buckets (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	return r.family(name, help, KindHistogram, nil, buckets).get(nil, nil).h
}

// NewHistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	checkBuckets(name, buckets)
	return HistogramVec{r.family(name, help, KindHistogram, labels, buckets)}
}

// checkBuckets validates a histogram's bucket ladder.
func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %s without buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing at %d", name, i))
		}
	}
	if math.IsNaN(buckets[0]) || math.IsInf(buckets[len(buckets)-1], 0) {
		panic(fmt.Sprintf("obs: histogram %s has non-finite bucket bound", name))
	}
}

// sortedFamilies snapshots the families in name order.
func (r *Registry) sortedFamilies() []*Family {
	r.mu.Lock()
	out := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Sample is one exposed series value: the flattened, test-friendly
// view of a registry. Histograms expand into name_bucket (with an "le"
// label), name_sum and name_count samples, exactly as exposed.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label's value ("" when absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// Snapshot returns every series currently exposed, in exposition
// order. It is the programmatic twin of WriteTo, for tests and
// embedding processes.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, f := range r.sortedFamilies() {
		for _, ch := range f.sortedChildren() {
			base := make(map[string]string, len(f.labels)+1)
			for i, l := range f.labels {
				base[l] = ch.values[i]
			}
			f.samples(ch, func(name, le, _ string, v float64) {
				labels := base
				if le != "" {
					labels = cloneLabels(base)
					labels["le"] = le
				}
				out = append(out, Sample{Name: name, Labels: labels, Value: v})
			})
		}
	}
	return out
}

// Value looks one series up by name and exact label set; ok reports
// whether it exists. A convenience for tests.
func (r *Registry) Value(name string, labels map[string]string) (v float64, ok bool) {
	for _, s := range r.Snapshot() {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, want := range labels {
			if s.Labels[k] != want {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// cloneLabels copies a label map.
func cloneLabels(m map[string]string) map[string]string {
	out := make(map[string]string, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// equalStrings reports element-wise equality.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validName checks a metric or label name against the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* (colons allowed in metric names
// only by convention; we accept them in both).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
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
