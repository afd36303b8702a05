// Package stats provides the summary statistics the experiment harness
// reports: running mean/variance (Welford), Student-t confidence
// intervals over independent replications, and simple histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a running mean and variance in one pass with good
// numerical behaviour. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the sample standard deviation, the square root of the
// unbiased sample variance (0 with fewer than two observations).
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// tTable95 holds two-sided 95% Student-t critical values by degrees of
// freedom for df 1..30, where the value still moves quickly.
var tTable95 = []float64{
	0,                                                             // df=0 unused
	12.706,                                                        // 1
	4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 2..10
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11..20
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21..30
}

// tAnchors95 extends the table beyond df 30 with the standard anchor
// rows (40, 60, 120); between anchors — and beyond the last one toward
// the normal value 1.96 — the critical value is interpolated linearly
// in 1/df, the conventional rule for t tables, which is accurate to
// ~1e-3 here. This keeps TCritical95 continuous and strictly
// decreasing: a sweep crossing 31 replications no longer sees the CI
// half-width step from 2.042 to 1.96.
var tAnchors95 = []struct{ df, t float64 }{
	{30, 2.042}, {40, 2.021}, {60, 2.000}, {120, 1.980},
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TCritical95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df < len(tTable95) {
		return tTable95[df]
	}
	inv := 1 / float64(df)
	for i := len(tAnchors95) - 1; i >= 0; i-- {
		a := tAnchors95[i]
		if float64(df) < a.df {
			continue
		}
		// Interpolate in 1/df between this anchor and the next (or the
		// normal limit t=1.96 at 1/df -> 0 past the last anchor).
		hiDF, hiT := math.Inf(1), 1.96
		if i+1 < len(tAnchors95) {
			hiDF, hiT = tAnchors95[i+1].df, tAnchors95[i+1].t
		}
		invLo, invHi := 1/a.df, 1/hiDF
		frac := (invLo - inv) / (invLo - invHi)
		return a.t + frac*(hiT-a.t)
	}
	return 1.96 // unreachable: df >= 30 always matches the first anchor
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// (0 with fewer than two observations).
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return TCritical95(w.n-1) * w.StdErr()
}

// String formats the estimate as "mean ± ci95".
func (w *Welford) String() string {
	return fmt.Sprintf("%.4g ± %.2g", w.Mean(), w.CI95())
}

// Summary is a frozen estimate: mean with a 95% confidence half-width.
type Summary struct {
	N    int
	Mean float64
	CI95 float64
}

// Summarize freezes the accumulator.
func (w *Welford) Summarize() Summary {
	return Summary{N: w.n, Mean: w.Mean(), CI95: w.CI95()}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation on the sorted sample. It returns NaN for an empty sample
// or out-of-range q. NaN observations are ignored (see Quantiles). xs is
// not modified. For several quantiles of the same sample use Quantiles,
// which sorts once.
func Quantile(xs []float64, q float64) float64 {
	return Quantiles(xs, q)[0]
}

// Quantiles returns the quantiles of xs for every q in qs with a single
// copy and sort of the sample, in qs order. Each quantile is computed by
// linear interpolation on the sorted sample, as in Quantile.
//
// NaN policy: NaN observations carry no ordering information and would
// otherwise silently poison the sort (sort.Float64s leaves NaNs in
// unspecified positions), so they are dropped before sorting and
// quantiles are computed over the remaining observations. A quantile is
// NaN when q is outside [0, 1] or NaN, or when no non-NaN observations
// remain.
func Quantiles(xs []float64, qs ...float64) []float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = sortedQuantile(sorted, q)
	}
	return out
}

// sortedQuantile interpolates the q-quantile of an ascending sample.
func sortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BatchMeans estimates the mean of a (possibly autocorrelated) series of
// within-run observations with a confidence interval, using the method
// of non-overlapping batch means: the series is split into `batches`
// equal batches whose means are treated as approximately independent
// observations. At least 2 batches and one observation per batch are
// required; leftover observations at the tail are dropped. This is the
// standard way to get honest intervals from a single simulation run,
// where successive response times are correlated.
func BatchMeans(xs []float64, batches int) (Summary, error) {
	if batches < 2 {
		return Summary{}, fmt.Errorf("stats: batch count %d < 2", batches)
	}
	size := len(xs) / batches
	if size < 1 {
		return Summary{}, fmt.Errorf("stats: %d observations cannot fill %d batches", len(xs), batches)
	}
	var w Welford
	for b := 0; b < batches; b++ {
		sum := 0.0
		for _, x := range xs[b*size : (b+1)*size] {
			sum += x
		}
		w.Add(sum / float64(size))
	}
	return w.Summarize(), nil
}
