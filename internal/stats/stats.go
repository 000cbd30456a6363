// Package stats implements the measurement side of STABL: empirical CDFs,
// the empirical super-cumulative distribution, the sensitivity score
// (STABL §3), throughput time series and recovery-time estimation.
//
// Every function here is a pure computation over its inputs — no randomness,
// no clocks, no global state — so identical samples always produce identical
// scores, and values may be shared freely across goroutines once built
// (Dist and TimeSeries are immutable after construction).
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Dist is an immutable empirical distribution over float64 samples.
type Dist struct {
	sorted []float64
}

// NewDist copies and sorts samples into a distribution.
func NewDist(samples []float64) Dist {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return Dist{sorted: s}
}

// Len returns the sample count.
func (d Dist) Len() int { return len(d.sorted) }

// Min returns the smallest sample (0 if empty).
func (d Dist) Min() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[0]
}

// Max returns the largest sample (0 if empty).
func (d Dist) Max() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

// Mean returns the arithmetic mean (0 if empty).
func (d Dist) Mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.sorted {
		sum += v
	}
	return sum / float64(len(d.sorted))
}

// Quantile returns the p-quantile for p in [0,1] using the nearest-rank
// method.
func (d Dist) Quantile(p float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return d.sorted[0]
	}
	if p >= 1 {
		return d.sorted[len(d.sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(d.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return d.sorted[idx]
}

// ECDF evaluates the empirical CDF: the fraction of samples <= x.
func (d Dist) ECDF(x float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i] > x })
	return float64(idx) / float64(len(d.sorted))
}

// Point is one (x, y) pair of an eCDF curve.
type Point struct {
	X float64
	Y float64
}

// Curve returns the full eCDF as a step curve, one point per distinct
// sample value; it is what Fig 1 plots.
func (d Dist) Curve() []Point {
	out := make([]Point, 0, len(d.sorted))
	for i, v := range d.sorted {
		if i+1 < len(d.sorted) && d.sorted[i+1] == v {
			continue
		}
		out = append(out, Point{X: v, Y: float64(i+1) / float64(len(d.sorted))})
	}
	return out
}

// SuperCumulative computes the empirical super-cumulative evaluated at the
// distribution's own maximum: S(b) = sum_{i=0..floor(b/step)} F(i*step),
// the discrete adaptation of S(x) = integral of F used by STABL. Both
// distributions of a sensitivity comparison must use the same step.
func (d Dist) SuperCumulative(step float64) float64 {
	return d.SuperCumulativeAt(d.Max(), step)
}

// SuperCumulativeAt evaluates the super-cumulative at x.
func (d Dist) SuperCumulativeAt(x, step float64) float64 {
	if len(d.sorted) == 0 || step <= 0 {
		return 0
	}
	n := int(math.Floor(x / step))
	var sum float64
	for i := 0; i <= n; i++ {
		sum += d.ECDF(float64(i) * step)
	}
	return sum
}

// Score is a sensitivity measurement.
type Score struct {
	// Value is |S1(b1) - S2(b2)| in grid-step units. Meaningless when
	// Infinite is set.
	Value float64
	// Infinite marks a liveness failure: the altered run stopped
	// committing transactions (STABL: "a blockchain that stops
	// committing transactions after a failure event has an infinite
	// sensitivity score").
	Infinite bool
	// Benefit reports that the altered environment improved on the
	// baseline (S2(b2) > S1(b1)); rendered as a striped bar in Fig 3.
	Benefit bool
	// Baseline and Altered are the two super-cumulative areas.
	Baseline float64
	Altered  float64
}

// String renders the score the way Fig 3 annotates bars.
func (s Score) String() string {
	if s.Infinite {
		return "inf"
	}
	if s.Benefit {
		return fmt.Sprintf("%.2f (benefit)", s.Value)
	}
	return fmt.Sprintf("%.2f", s.Value)
}

// Sensitivity computes the STABL sensitivity score between a baseline
// distribution, sorted once for every set scored against it, and an altered
// latency sample set, on a grid of the given step (same unit as the
// samples). An empty altered sample set yields an infinite score.
//
// The score is the absolute difference of the areas under the two eCDFs
// (the pink area of the paper's Fig 1): both super-cumulatives are
// evaluated on a common grid up to max(b1, b2). Evaluating each at its own
// maximum, as the paper's formula literally reads, would make the metric
// hypersensitive to a single outlier, contradicting the paper's stated
// outlier-resilience property; the common-grid area difference satisfies
// all four properties listed in §3.
func Sensitivity(baseline Dist, altered []float64, step float64) Score {
	if len(altered) == 0 {
		return Score{Infinite: true}
	}
	d1, d2 := baseline, NewDist(altered)
	b := math.Max(d1.Max(), d2.Max())
	s1 := d1.SuperCumulativeAt(b, step)
	s2 := d2.SuperCumulativeAt(b, step)
	return Score{
		Value:    math.Abs(s1 - s2),
		Benefit:  s2 > s1,
		Baseline: s1,
		Altered:  s2,
	}
}

// TimeSeries is a per-bucket event count over an experiment, the raw data of
// the throughput-over-time figures.
type TimeSeries struct {
	Bucket time.Duration
	Counts []int
}

// Throughput buckets event times into a series covering [0, total).
func Throughput(events []time.Duration, bucket, total time.Duration) TimeSeries {
	if bucket <= 0 {
		bucket = time.Second
	}
	n := int((total + bucket - 1) / bucket)
	if n < 0 {
		n = 0
	}
	counts := make([]int, n)
	for _, ev := range events {
		i := int(ev / bucket)
		if i >= 0 && i < n {
			counts[i]++
		}
	}
	return TimeSeries{Bucket: bucket, Counts: counts}
}

// Rate returns the event rate of bucket i in events per second.
func (ts TimeSeries) Rate(i int) float64 {
	if i < 0 || i >= len(ts.Counts) || ts.Bucket <= 0 {
		return 0
	}
	return float64(ts.Counts[i]) / ts.Bucket.Seconds()
}

// MeanRate averages the rate over buckets covering [from, to).
func (ts TimeSeries) MeanRate(from, to time.Duration) float64 {
	if ts.Bucket <= 0 || to <= from {
		return 0
	}
	lo := int(from / ts.Bucket)
	hi := int(to / ts.Bucket)
	if hi > len(ts.Counts) {
		hi = len(ts.Counts)
	}
	if lo >= hi {
		return 0
	}
	total := 0
	for i := lo; i < hi; i++ {
		total += ts.Counts[i]
	}
	return float64(total) / (float64(hi-lo) * ts.Bucket.Seconds())
}

// Total returns the sum of all bucket counts.
func (ts TimeSeries) Total() int {
	sum := 0
	for _, c := range ts.Counts {
		sum += c
	}
	return sum
}

// RecoveryTime estimates how long after recoverAt the series needed to
// sustain at least frac*reference events/s over a window of w buckets.
// It returns the delay and whether recovery was observed at all.
func (ts TimeSeries) RecoveryTime(recoverAt time.Duration, reference, frac float64, w int) (time.Duration, bool) {
	if ts.Bucket <= 0 || w <= 0 || reference <= 0 {
		return 0, false
	}
	target := frac * reference
	start := int(recoverAt / ts.Bucket)
	for i := start; i+w <= len(ts.Counts); i++ {
		sum := 0
		for j := i; j < i+w; j++ {
			sum += ts.Counts[j]
		}
		rate := float64(sum) / (float64(w) * ts.Bucket.Seconds())
		if rate >= target {
			return time.Duration(i)*ts.Bucket - recoverAt, true
		}
	}
	return 0, false
}

// StabilizationTime estimates when a series stops oscillating after an
// event: the delay from eventAt to the start of the last window from which
// every subsequent window of w buckets keeps its coefficient of variation
// (stddev/mean) at or below maxCV. It returns false when the series never
// stabilizes. This quantifies observations like "the throughput instability
// reduces in about 82 seconds" (STABL §4 on Aptos).
func (ts TimeSeries) StabilizationTime(eventAt time.Duration, w int, maxCV float64) (time.Duration, bool) {
	if ts.Bucket <= 0 || w <= 1 {
		return 0, false
	}
	start := int(eventAt / ts.Bucket)
	if start < 0 {
		start = 0
	}
	if start+w > len(ts.Counts) {
		return 0, false
	}
	lastUnstable := start - 1
	for i := start; i+w <= len(ts.Counts); i++ {
		var sum float64
		for j := i; j < i+w; j++ {
			sum += float64(ts.Counts[j])
		}
		mean := sum / float64(w)
		if mean <= 0 {
			lastUnstable = i
			continue
		}
		var varsum float64
		for j := i; j < i+w; j++ {
			d := float64(ts.Counts[j]) - mean
			varsum += d * d
		}
		cv := math.Sqrt(varsum/float64(w)) / mean
		if cv > maxCV {
			lastUnstable = i
		}
	}
	stableFrom := lastUnstable + 1
	if stableFrom+w > len(ts.Counts) {
		return 0, false
	}
	if stableFrom < start {
		stableFrom = start
	}
	return time.Duration(stableFrom)*ts.Bucket - eventAt, true
}

// CSV writes the series as "seconds,count" rows.
func (ts TimeSeries) CSV(w io.Writer) error {
	for i, c := range ts.Counts {
		if _, err := fmt.Fprintf(w, "%.0f,%d\n", (time.Duration(i) * ts.Bucket).Seconds(), c); err != nil {
			return err
		}
	}
	return nil
}
