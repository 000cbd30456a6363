package stabl

import (
	"strings"
	"testing"
	"time"
)

// TestRenderThroughputNonPositiveBucket: a bucket that never advances the
// walk over the run used to loop forever; it now renders the series at its
// own resolution, one row per bucket.
func TestRenderThroughputNonPositiveBucket(t *testing.T) {
	series := TimeSeries{Bucket: time.Second, Counts: []int{3, 1, 4}}
	cmp := &Comparison{
		System:   "Stub",
		Baseline: &RunResult{Throughput: series},
		Altered:  &RunResult{Throughput: series},
	}
	want := RenderThroughput(cmp, time.Second)
	if rows := strings.Count(want, "\n"); rows != 2+len(series.Counts) {
		t.Fatalf("reference render has %d lines, want %d:\n%s", rows, 2+len(series.Counts), want)
	}
	for _, bucket := range []time.Duration{0, -5 * time.Second} {
		if got := RenderThroughput(cmp, bucket); got != want {
			t.Errorf("bucket %v:\n%s\nwant the series' own resolution:\n%s", bucket, got, want)
		}
	}
}
