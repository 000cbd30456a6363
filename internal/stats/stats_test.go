package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestECDFBasics(t *testing.T) {
	d := NewDist([]float64{1, 2, 2, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := d.ECDF(c.x); got != c.want {
			t.Fatalf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	d := NewDist(nil)
	if d.ECDF(1) != 0 || d.Max() != 0 || d.Mean() != 0 || d.Len() != 0 {
		t.Fatal("empty dist not all-zero")
	}
}

func TestDistSummaryStats(t *testing.T) {
	d := NewDist([]float64{3, 1, 2})
	if d.Min() != 1 || d.Max() != 3 {
		t.Fatalf("min/max = %v/%v", d.Min(), d.Max())
	}
	if d.Mean() != 2 {
		t.Fatalf("mean = %v", d.Mean())
	}
	if q := d.Quantile(0.5); q != 2 {
		t.Fatalf("median = %v", q)
	}
	if q := d.Quantile(1); q != 3 {
		t.Fatalf("p100 = %v", q)
	}
	if q := d.Quantile(0); q != 1 {
		t.Fatalf("p0 = %v", q)
	}
}

func TestCurveDeduplicatesSteps(t *testing.T) {
	d := NewDist([]float64{1, 1, 2})
	curve := d.Curve()
	if len(curve) != 2 {
		t.Fatalf("curve = %v", curve)
	}
	if curve[0] != (Point{X: 1, Y: 2.0 / 3}) || curve[1] != (Point{X: 2, Y: 1}) {
		t.Fatalf("curve = %v", curve)
	}
}

func TestSuperCumulativeHandComputed(t *testing.T) {
	// Samples {1, 3}: F(0)=0, F(1)=0.5, F(2)=0.5, F(3)=1.
	// S(3) with step 1 = 0 + 0.5 + 0.5 + 1 = 2.
	d := NewDist([]float64{1, 3})
	if got := d.SuperCumulative(1); got != 2 {
		t.Fatalf("S = %v, want 2", got)
	}
}

func TestSensitivityIdenticalDistributionsIsZero(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5}
	s := Sensitivity(NewDist(samples), samples, 1)
	if s.Infinite || s.Value != 0 || s.Benefit {
		t.Fatalf("score = %+v", s)
	}
}

func TestSensitivityWorseLatenciesPositiveNoBenefit(t *testing.T) {
	base := []float64{1, 1, 2, 2}
	altered := []float64{5, 6, 7, 8}
	s := Sensitivity(NewDist(base), altered, 1)
	if s.Infinite {
		t.Fatal("finite case marked infinite")
	}
	if s.Value <= 0 {
		t.Fatalf("score = %v, want > 0", s.Value)
	}
	// Higher latencies stretch the curve: larger area up to a larger max.
	if !((s.Altered > s.Baseline) == s.Benefit) {
		t.Fatalf("benefit flag inconsistent: %+v", s)
	}
}

func TestSensitivityEmptyAlteredIsInfinite(t *testing.T) {
	s := Sensitivity(NewDist([]float64{1, 2}), nil, 1)
	if !s.Infinite {
		t.Fatal("empty altered should be infinite")
	}
	if s.String() != "inf" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSensitivityOutlierResilience(t *testing.T) {
	base := make([]float64, 1000)
	withOutlier := make([]float64, 1000)
	for i := range base {
		base[i] = 2
		withOutlier[i] = 2
	}
	withOutlier[0] = 50 // one extreme outlier in 1000 samples
	shifted := make([]float64, 1000)
	for i := range shifted {
		shifted[i] = 10 // every sample worse
	}
	outlierScore := Sensitivity(NewDist(base), withOutlier, 1).Value
	shiftScore := Sensitivity(NewDist(base), shifted, 1).Value
	if outlierScore >= shiftScore {
		t.Fatalf("outlier score %v >= full shift score %v; metric should resist outliers",
			outlierScore, shiftScore)
	}
}

// Property: the score is always non-negative and zero iff distributions have
// equal areas; order of samples is irrelevant.
func TestPropertySensitivityNonNegativeAndPermutationInvariant(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		base := make([]float64, len(a))
		for i, v := range a {
			base[i] = float64(v%50) + 1
		}
		alt := make([]float64, len(b))
		for i, v := range b {
			alt[i] = float64(v%50) + 1
		}
		s := Sensitivity(NewDist(base), alt, 1)
		if s.Value < 0 || s.Infinite {
			return false
		}
		// Permute baseline: score must be identical.
		perm := append([]float64(nil), base...)
		for i := len(perm) - 1; i > 0; i-- {
			j := (i * 7) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		s2 := Sensitivity(NewDist(perm), alt, 1)
		return math.Abs(s.Value-s2.Value) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetric arguments give the same magnitude with flipped
// benefit.
func TestPropertySensitivitySymmetry(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		base := make([]float64, len(a))
		for i, v := range a {
			base[i] = float64(v) + 1
		}
		alt := make([]float64, len(b))
		for i, v := range b {
			alt[i] = float64(v) + 1
		}
		s1 := Sensitivity(NewDist(base), alt, 1)
		s2 := Sensitivity(NewDist(alt), base, 1)
		return math.Abs(s1.Value-s2.Value) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputBucketsEvents(t *testing.T) {
	events := []time.Duration{0, 500 * time.Millisecond, time.Second, 2500 * time.Millisecond}
	ts := Throughput(events, time.Second, 3*time.Second)
	want := []int{2, 1, 1}
	if len(ts.Counts) != 3 {
		t.Fatalf("buckets = %v", ts.Counts)
	}
	for i := range want {
		if ts.Counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", ts.Counts, want)
		}
	}
	if ts.Total() != 4 {
		t.Fatalf("Total = %d", ts.Total())
	}
	if ts.Rate(0) != 2 {
		t.Fatalf("Rate(0) = %v", ts.Rate(0))
	}
}

func TestThroughputIgnoresOutOfRange(t *testing.T) {
	ts := Throughput([]time.Duration{5 * time.Second}, time.Second, 3*time.Second)
	if ts.Total() != 0 {
		t.Fatal("out-of-range event counted")
	}
}

func TestMeanRate(t *testing.T) {
	ts := TimeSeries{Bucket: time.Second, Counts: []int{10, 20, 30, 40}}
	if got := ts.MeanRate(time.Second, 3*time.Second); got != 25 {
		t.Fatalf("MeanRate = %v, want 25", got)
	}
	if got := ts.MeanRate(0, 0); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
}

func TestRecoveryTimeFindsSustainedWindow(t *testing.T) {
	// Baseline 10/s; outage in buckets 5-9; recovery ramps at bucket 12.
	counts := []int{10, 10, 10, 10, 10, 0, 0, 0, 0, 0, 1, 2, 10, 10, 10, 10}
	ts := TimeSeries{Bucket: time.Second, Counts: counts}
	delay, ok := ts.RecoveryTime(10*time.Second, 10, 0.8, 3)
	if !ok {
		t.Fatal("recovery not detected")
	}
	if delay != 2*time.Second {
		t.Fatalf("delay = %v, want 2s", delay)
	}
}

func TestRecoveryTimeNotRecovered(t *testing.T) {
	ts := TimeSeries{Bucket: time.Second, Counts: []int{10, 10, 0, 0, 0, 0}}
	if _, ok := ts.RecoveryTime(2*time.Second, 10, 0.8, 2); ok {
		t.Fatal("false recovery detected")
	}
}

func TestStabilizationTimeFindsDamping(t *testing.T) {
	// Oscillation for 10 buckets after the event, then steady.
	counts := []int{100, 100, 100, 100, 100}
	counts = append(counts, 20, 180, 10, 190, 30, 170, 40, 160, 50, 150)
	for i := 0; i < 20; i++ {
		counts = append(counts, 100)
	}
	ts := TimeSeries{Bucket: time.Second, Counts: counts}
	delay, ok := ts.StabilizationTime(5*time.Second, 4, 0.2)
	if !ok {
		t.Fatal("stabilization not detected")
	}
	// Oscillation covers buckets 5-14; stabilization around 15s => ~10s
	// after the event (window effects allow a little slack).
	if delay < 6*time.Second || delay > 14*time.Second {
		t.Fatalf("delay = %v, want ~10s", delay)
	}
}

func TestStabilizationTimeNeverStable(t *testing.T) {
	counts := make([]int, 30)
	for i := range counts {
		if i%2 == 0 {
			counts[i] = 10
		} else {
			counts[i] = 200
		}
	}
	ts := TimeSeries{Bucket: time.Second, Counts: counts}
	if _, ok := ts.StabilizationTime(0, 4, 0.2); ok {
		t.Fatal("permanently oscillating series reported stable")
	}
}

func TestStabilizationTimeImmediatelyStable(t *testing.T) {
	counts := make([]int, 20)
	for i := range counts {
		counts[i] = 100
	}
	ts := TimeSeries{Bucket: time.Second, Counts: counts}
	delay, ok := ts.StabilizationTime(5*time.Second, 4, 0.2)
	if !ok || delay != 0 {
		t.Fatalf("delay = %v ok=%v, want immediate", delay, ok)
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	ts := TimeSeries{Bucket: 2 * time.Second, Counts: []int{3, 5}}
	var buf strings.Builder
	if err := ts.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "0,3\n2,5\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}
