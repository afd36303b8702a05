package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 || w.StdErr() != 0 {
		t.Fatal("zero-value Welford not neutral")
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean %v, want 5", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatal("single observation mishandled")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		naiveVar := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset with small spread: naive two-pass sum of squares
	// would lose precision; Welford must not.
	var w Welford
	const offset = 1e9
	for _, x := range []float64{offset + 1, offset + 2, offset + 3} {
		w.Add(x)
	}
	if math.Abs(w.Mean()-(offset+2)) > 1e-3 {
		t.Fatalf("mean %v", w.Mean())
	}
	if math.Abs(w.Variance()-1) > 1e-6 {
		t.Fatalf("variance %v, want 1", w.Variance())
	}
}

func TestTCritical95(t *testing.T) {
	if !math.IsNaN(TCritical95(0)) {
		t.Fatal("df=0 not NaN")
	}
	if math.Abs(TCritical95(1)-12.706) > 1e-9 {
		t.Fatalf("t(1) = %v", TCritical95(1))
	}
	if math.Abs(TCritical95(10)-2.228) > 1e-9 {
		t.Fatalf("t(10) = %v", TCritical95(10))
	}
	// Anchor rows of the extended table.
	for _, row := range []struct {
		df   int
		want float64
	}{{40, 2.021}, {60, 2.000}, {120, 1.980}} {
		if got := TCritical95(row.df); math.Abs(got-row.want) > 1e-9 {
			t.Fatalf("t(%d) = %v, want %v", row.df, got, row.want)
		}
	}
	// Past the last anchor the value approaches the normal 1.96 (the
	// true value at df=1000 is 1.9623).
	if v := TCritical95(1000); math.Abs(v-1.9623) > 5e-3 {
		t.Fatalf("t(1000) = %v", v)
	}
	// Monotone decreasing toward the normal value, with no step at the
	// old table edge (df 30 -> 31 used to jump 2.042 -> 1.96).
	prev := math.Inf(1)
	for df := 1; df < 500; df++ {
		v := TCritical95(df)
		if v >= prev {
			t.Fatalf("t not strictly decreasing at df=%d (%v -> %v)", df, prev, v)
		}
		if prev-v > 0.01 && df > 25 {
			t.Fatalf("t discontinuity at df=%d (%v -> %v)", df, prev, v)
		}
		if v < 1.96 {
			t.Fatalf("t(%d) = %v below the normal limit", df, v)
		}
		prev = v
	}
}

func TestCI95CoversForNormalish(t *testing.T) {
	var w Welford
	for _, x := range []float64{9, 10, 11, 10, 9.5, 10.5} {
		w.Add(x)
	}
	lo, hi := w.Mean()-w.CI95(), w.Mean()+w.CI95()
	if lo >= 10 || hi <= 10 {
		t.Fatalf("CI [%v, %v] excludes true-ish mean 10", lo, hi)
	}
}

func TestSummarize(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(3)
	s := w.Summarize()
	if s.N != 2 || s.Mean != 2 || s.CI95 != w.CI95() {
		t.Fatalf("summary %+v", s)
	}
}

func TestWelfordString(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(2)
	if w.String() == "" {
		t.Fatal("empty String")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Fatal("invalid quantile queries not NaN")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Fatal("single-element quantile")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("interpolated quantile %v, want 3", got)
	}
}

func TestBatchMeansValidation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if _, err := BatchMeans(xs, 1); err == nil {
		t.Fatal("1 batch accepted")
	}
	if _, err := BatchMeans(xs, 5); err == nil {
		t.Fatal("more batches than observations accepted")
	}
}

func TestBatchMeansKnownValues(t *testing.T) {
	// 8 observations, 2 batches of 4: batch means 2.5 and 6.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	s, err := BatchMeans(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 2 || math.Abs(s.Mean-4.5) > 1e-12 {
		t.Fatalf("summary %+v, want mean 4.5 over 2 batches", s)
	}
	if s.CI95 <= 0 {
		t.Fatal("zero CI for differing batches")
	}
}

func TestBatchMeansDropsTail(t *testing.T) {
	// 7 observations, 3 batches of 2: the 7th is dropped.
	xs := []float64{1, 1, 2, 2, 3, 3, 100}
	s, err := BatchMeans(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-2) > 1e-12 {
		t.Fatalf("mean %v, want 2 (tail not dropped?)", s.Mean)
	}
}

func TestBatchMeansConstantSeries(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	s, err := BatchMeans(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 7 || s.CI95 != 0 {
		t.Fatalf("constant series summary %+v", s)
	}
}

// TestQuantilesSingleSortMatchesQuantile checks the batched API against
// the one-at-a-time API on the same sample.
func TestQuantilesSingleSortMatchesQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	qs := []float64{0, 0.25, 0.5, 0.75, 0.95, 1}
	got := Quantiles(xs, qs...)
	if len(got) != len(qs) {
		t.Fatalf("Quantiles returned %d values for %d qs", len(got), len(qs))
	}
	for i, q := range qs {
		if want := Quantile(xs, q); math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("Quantiles[%v] = %v, Quantile says %v", q, got[i], want)
		}
	}
}

// TestQuantilesNaNPolicy pins the documented NaN handling: NaN samples
// are dropped before sorting (they used to poison the sort order
// silently), an all-NaN sample yields NaN, and out-of-range qs yield NaN
// without disturbing in-range ones.
func TestQuantilesNaNPolicy(t *testing.T) {
	nan := math.NaN()
	xs := []float64{nan, 3, nan, 1, 2, nan}
	got := Quantiles(xs, 0, 0.5, 1)
	for i, want := range []float64{1, 2, 3} {
		if got[i] != want {
			t.Errorf("quantile %d over NaN-polluted sample = %v, want %v", i, got[i], want)
		}
	}
	if v := Quantile(xs, 0.5); v != 2 {
		t.Errorf("Quantile over NaN-polluted sample = %v, want 2", v)
	}
	if !math.IsNaN(Quantile([]float64{nan, nan}, 0.5)) {
		t.Error("all-NaN sample should yield NaN")
	}
	mixed := Quantiles(xs, -0.5, 0.5, 2)
	if !math.IsNaN(mixed[0]) || mixed[1] != 2 || !math.IsNaN(mixed[2]) {
		t.Errorf("out-of-range qs mishandled: %v", mixed)
	}
	if !math.IsNaN(Quantiles(nil, 0.5)[0]) {
		t.Error("empty sample should yield NaN")
	}
}
