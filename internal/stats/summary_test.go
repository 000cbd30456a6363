package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeHandComputed(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 2 {
		t.Fatalf("p50 = %v", s.P50)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.Stddev-wantStd) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.Stddev, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() != "no samples" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1})
	if !strings.Contains(s.String(), "n=1") {
		t.Fatalf("String = %q", s.String())
	}
}

// Property: quantiles are ordered and bounded by min/max.
func TestPropertySummaryQuantileOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		s := Summarize(samples)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P95 &&
			s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKolmogorovSmirnovKnownValues(t *testing.T) {
	if d := KolmogorovSmirnov([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Fatalf("identical KS = %v", d)
	}
	// Disjoint supports: the eCDFs never overlap, KS = 1.
	if d := KolmogorovSmirnov([]float64{1, 2}, []float64{10, 11}); d != 1 {
		t.Fatalf("disjoint KS = %v", d)
	}
	if d := KolmogorovSmirnov(nil, []float64{1}); d != 0 {
		t.Fatalf("empty KS = %v", d)
	}
}

// Property: KS is symmetric and within [0,1].
func TestPropertyKSSymmetricBounded(t *testing.T) {
	f := func(a, b []uint8) bool {
		fa := make([]float64, len(a))
		for i, v := range a {
			fa[i] = float64(v)
		}
		fb := make([]float64, len(b))
		for i, v := range b {
			fb[i] = float64(v)
		}
		d1 := KolmogorovSmirnov(fa, fb)
		d2 := KolmogorovSmirnov(fb, fa)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
