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

// scenarioComparison is a scored scenario run: no fault plan, the timeline's
// instants copied onto the comparison.
func scenarioComparison() *Comparison {
	series := TimeSeries{Bucket: time.Second, Counts: []int{3, 1, 4, 1, 5, 9}}
	return &Comparison{
		System:    "Stub",
		Scenario:  "cascade",
		InjectAt:  2 * time.Second,
		RecoverAt: 4 * time.Second,
		Baseline:  &RunResult{Throughput: series},
		Altered:   &RunResult{Throughput: series},
	}
}

// TestRenderThroughputMarksScenarioRuns: the text table marks a scenario's
// first disruption and last revert exactly as it marks a plan's inject and
// recover — it used to leave scenario runs unmarked.
func TestRenderThroughputMarksScenarioRuns(t *testing.T) {
	got := RenderThroughput(scenarioComparison(), time.Second)
	if !strings.HasPrefix(got, "Stub (scenario: cascade)\n") {
		t.Errorf("header:\n%s", got)
	}
	for _, row := range []string{"      2sx ", "      4so "} {
		if !strings.Contains(got, row) {
			t.Errorf("no %q row in:\n%s", row, got)
		}
	}
	if n := strings.Count(got, "sx ") + strings.Count(got, "so "); n != 2 {
		t.Errorf("%d marked rows, want 2:\n%s", n, got)
	}
}

// TestThroughputSVGTitlesAndMarksScenarioRuns: a scenario chart used to be
// titled "(none)" and carry no marker.
func TestThroughputSVGTitlesAndMarksScenarioRuns(t *testing.T) {
	got := ThroughputSVG(scenarioComparison(), time.Second)
	for _, part := range []string{"Stub throughput (scenario:cascade)", ">inject<", ">recover<"} {
		if !strings.Contains(got, part) {
			t.Errorf("SVG lacks %q", part)
		}
	}
}
