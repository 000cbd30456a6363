package stats

import (
	"fmt"
	"math"
)

// Summary condenses a latency distribution into the moments and quantiles
// reports care about. All fields are in the samples' unit (seconds for
// STABL latencies).
type Summary struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

// Summarize computes a Summary of the samples.
func Summarize(samples []float64) Summary {
	d := NewDist(samples)
	if d.Len() == 0 {
		return Summary{}
	}
	mean := d.Mean()
	var varsum float64
	for _, v := range d.sorted {
		varsum += (v - mean) * (v - mean)
	}
	return Summary{
		Count:  d.Len(),
		Mean:   mean,
		Stddev: math.Sqrt(varsum / float64(d.Len())),
		Min:    d.Min(),
		P50:    d.Quantile(0.50),
		P90:    d.Quantile(0.90),
		P95:    d.Quantile(0.95),
		P99:    d.Quantile(0.99),
		Max:    d.Max(),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// KolmogorovSmirnov returns the KS statistic between two sample sets: the
// largest vertical distance between their eCDFs. It complements the
// sensitivity score (an area) with a worst-point measure.
func KolmogorovSmirnov(a, b []float64) float64 {
	da, db := NewDist(a), NewDist(b)
	if da.Len() == 0 || db.Len() == 0 {
		return 0
	}
	max := 0.0
	for _, v := range da.sorted {
		if d := math.Abs(da.ECDF(v) - db.ECDF(v)); d > max {
			max = d
		}
	}
	for _, v := range db.sorted {
		if d := math.Abs(da.ECDF(v) - db.ECDF(v)); d > max {
			max = d
		}
	}
	return max
}
