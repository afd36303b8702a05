package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.NewGauge("test_level", "level")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	// Idempotent re-registration returns the same series.
	if r.NewCounter("test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.NewGauge("test_x", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_latency", "latency", []float64{1, 2, 5})
	for _, x := range []float64{0.5, 1, 1.5, 2, 3, 100, math.NaN()} {
		h.Observe(x)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6 (NaN dropped)", got)
	}
	if got := h.Sum(); got != 0.5+1+1.5+2+3+100 {
		t.Fatalf("sum = %v", got)
	}
	cum, count, _ := h.snapshot()
	want := []int64{2, 4, 5, 6} // le=1, le=2, le=5, le=+Inf (cumulative)
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative bucket %d = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if count != 6 {
		t.Fatalf("snapshot count = %d", count)
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_events_total", "events", "kind")
	cv.With("grant").Add(3)
	cv.With("deny").Inc()
	cv.With("grant").Inc()
	if v, ok := r.Value("test_events_total", map[string]string{"kind": "grant"}); !ok || v != 4 {
		t.Fatalf("grant = %v ok=%v, want 4", v, ok)
	}
	if v, ok := r.Value("test_events_total", map[string]string{"kind": "deny"}); !ok || v != 1 {
		t.Fatalf("deny = %v ok=%v, want 1", v, ok)
	}
	if _, ok := r.Value("test_events_total", map[string]string{"kind": "nope"}); ok {
		t.Fatal("missing label value reported present")
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.NewGaugeFunc("test_live", "live", func() float64 { return n })
	if v, ok := r.Value("test_live", nil); !ok || v != 7 {
		t.Fatalf("gauge func = %v ok=%v", v, ok)
	}
	n = 9
	if v, _ := r.Value("test_live", nil); v != 9 {
		t.Fatalf("gauge func not re-evaluated: %v", v)
	}
}

// TestCounterFunc checks that function-backed counters, labelled or
// not, read their owner's count at every exposition and print it as an
// integer, as stored counters do, and that the first function bound to
// a series stays.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := int64(1 << 40)
	r.NewCounterFunc("test_fn_total", "fn", func() int64 { return n })
	r.NewCounterFunc("test_fn_total", "fn", func() int64 { return -1 })
	vec := r.NewCounterVec("test_fn_by_cause_total", "by cause", "cause")
	vec.Func(func() int64 { return n + 1 }, "a")
	vec.With("b").Add(3)
	n++
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# TYPE test_fn_total counter\ntest_fn_total 1099511627777\n",
		"test_fn_by_cause_total{cause=\"a\"} 1099511627778\n",
		"test_fn_by_cause_total{cause=\"b\"} 3\n",
	} {
		if !strings.Contains(b.String(), line) {
			t.Fatalf("exposition lacks %q:\n%s", line, b.String())
		}
	}
	if v, ok := r.Value("test_fn_by_cause_total", map[string]string{"cause": "a"}); !ok || v != float64(n+1) {
		t.Fatalf("labelled counter func = %v ok=%v", v, ok)
	}
}

// TestHistogramQuantile pins the interpolation against hand-computed
// values: linear inside the bucket the rank falls in, from 0 below the
// first bound, the bound itself for a first bound of 0, and the largest
// finite bound for a rank in +Inf.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_q", "q", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for _, x := range []float64{0.5, 1.5, 1.5, 3} {
		h.Observe(x)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 1},    // rank 1: the top of the first bucket
		{0.5, 1.5},   // rank 2: half-way through (1, 2]'s two samples
		{0.125, 0.5}, // rank 0.5: half-way through [0, 1]
		{1, 4},       // rank 4: the top of (2, 4]
	} {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	h.Observe(100)
	if got := h.Quantile(0.99); got != 4 {
		t.Errorf("rank in +Inf: Quantile(0.99) = %v, want the last bound 4", got)
	}

	z := r.NewHistogram("test_q_zero", "q", []float64{0, 1})
	z.Observe(0)
	z.Observe(0)
	z.Observe(0.5)
	if got := z.Quantile(0.5); got != 0 {
		t.Errorf("le=0 bucket: Quantile(0.5) = %v, want 0", got)
	}
	if got := z.Quantile(1); got != 1 {
		t.Errorf("Quantile(1) = %v, want 1", got)
	}
}

// TestExpositionGolden pins the exact text-format output of a small
// registry: families in name order, HELP/TYPE headers, label and help
// escaping, histogram expansion.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_events_total", "Events by kind.", "kind")
	cv.With("deny").Add(2)
	cv.With("grant").Add(40)
	g := r.NewGauge("test_active", "Currently active.\nSecond line with \\ backslash.")
	g.Set(3.5)
	h := r.NewHistogram("test_wait_seconds", "Wait time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	ev := r.NewCounterVec("test_odd_total", "Odd labels.", "path")
	ev.With(`a"b\c`).Inc()

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_active Currently active.\nSecond line with \\ backslash.
# TYPE test_active gauge
test_active 3.5
# HELP test_events_total Events by kind.
# TYPE test_events_total counter
test_events_total{kind="deny"} 2
test_events_total{kind="grant"} 40
# HELP test_odd_total Odd labels.
# TYPE test_odd_total counter
test_odd_total{path="a\"b\\c"} 1
# HELP test_wait_seconds Wait time.
# TYPE test_wait_seconds histogram
test_wait_seconds_bucket{le="0.1"} 1
test_wait_seconds_bucket{le="1"} 2
test_wait_seconds_bucket{le="+Inf"} 3
test_wait_seconds_sum 2.55
test_wait_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionParsesAsValidText is the format-validity golden: the
// registry's own output must round-trip through the hand-rolled
// Prometheus text parser, sample for sample.
func TestExpositionParsesAsValidText(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_events_total", "events", "kind")
	cv.With("grant").Add(12)
	cv.With(`weird"kind\with,commas`).Inc()
	r.NewGauge("test_temp", "temp").Set(-3.25)
	h := r.NewHistogram("test_lat", "lat", []float64{1, 10, 100})
	h.Observe(7)
	r.NewGaugeFunc("test_fn", "fn", func() float64 { return 42 })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition did not parse: %v\n%s", err, b.String())
	}
	snap := r.Snapshot()
	if len(parsed) != len(snap) {
		t.Fatalf("parsed %d samples, snapshot has %d", len(parsed), len(snap))
	}
	for i, want := range snap {
		got := parsed[i]
		if got.Name != want.Name || got.Value != want.Value || len(got.Labels) != len(want.Labels) {
			t.Fatalf("sample %d: got %+v want %+v", i, got, want)
		}
		for k, v := range want.Labels {
			if got.Labels[k] != v {
				t.Fatalf("sample %d label %s: got %q want %q", i, k, got.Labels[k], v)
			}
		}
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	bad := []string{
		`3metric 1`,                // name starts with digit
		`metric{l=unquoted} 1`,     // unquoted label value
		`metric{l="open} 1`,        // unterminated quote
		`metric{l="x"} notanumber`, // bad value
		`metric 1 2 3`,             // trailing junk
		"# TYPE metric banana",     // unknown type
		`metric{l="a",l="b"} 1`,    // duplicate label
		`metric{l="bad\escape"} 1`, // invalid escape
	}
	for _, line := range bad {
		if _, err := ParseText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParseText accepted malformed line %q", line)
		}
	}
	ok := "# random comment\nmetric_total 5 1700000000000\n\nother{a=\"b\"} +Inf\n"
	if _, err := ParseText(strings.NewReader(ok)); err != nil {
		t.Errorf("ParseText rejected valid input: %v", err)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_n_total", "n")
	g := r.NewGauge("test_g", "g")
	h := r.NewHistogram("test_h", "h", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 150))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
