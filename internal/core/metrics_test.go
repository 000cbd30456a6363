package core

import (
	"bytes"
	"testing"
	"time"

	"stabl/internal/metrics"
)

// TestMetricsRecorderIsPureObservation verifies the central contract of the
// instrumentation layer: attaching a recorder must not change what a run
// measures, and the recorder must agree with the run result it observed.
func TestMetricsRecorderIsPureObservation(t *testing.T) {
	config := func(rec *metrics.Recorder) Config {
		return Config{
			System:   &stubSystem{fragile: true},
			Seed:     1,
			Duration: 90 * time.Second,
			Fault:    FaultPlan{Kind: FaultTransient, InjectAt: 20 * time.Second, RecoverAt: 40 * time.Second},
			Metrics:  rec,
		}
	}
	plain, err := Compare(config(nil))
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder(5 * time.Second)
	instrumented, err := Compare(config(rec))
	if err != nil {
		t.Fatal(err)
	}

	if plain.Score != instrumented.Score {
		t.Fatalf("score changed: %v vs %v", instrumented.Score, plain.Score)
	}
	if plain.Altered.UniqueCommits != instrumented.Altered.UniqueCommits ||
		plain.Baseline.UniqueCommits != instrumented.Baseline.UniqueCommits {
		t.Fatalf("commits changed: %d/%d vs %d/%d",
			instrumented.Altered.UniqueCommits, instrumented.Baseline.UniqueCommits,
			plain.Altered.UniqueCommits, plain.Baseline.UniqueCommits)
	}
	if plain.RecoveryTime != instrumented.RecoveryTime {
		t.Fatalf("recovery changed: %v vs %v", instrumented.RecoveryTime, plain.RecoveryTime)
	}

	// Compare attaches the recorder to the altered run only; its commit
	// counter must agree exactly with the run result it observed.
	if got := int(rec.CounterTotal("tx_committed")); got != instrumented.Altered.UniqueCommits {
		t.Fatalf("recorder counted %d commits, run measured %d", got, instrumented.Altered.UniqueCommits)
	}
	info := rec.Run()
	if info.System != "Stub" || info.Fault != "transient" || info.Duration != 90*time.Second {
		t.Fatalf("run info = %+v", info)
	}
	var inject, recover bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case metrics.EventFaultInject:
			inject = ev.At == 20*time.Second
		case metrics.EventFaultRecover:
			recover = ev.At == 40*time.Second
		}
	}
	if !inject || !recover {
		t.Fatalf("fault annotations missing or mistimed (inject=%v recover=%v)", inject, recover)
	}
	// The transient fault halts and restarts nodes; the recorder's tracer
	// must have captured that lifecycle.
	if len(rec.Trace()) == 0 {
		t.Fatal("network trace not captured")
	}
	if len(rec.GaugeNames()) == 0 {
		t.Fatal("no periodic gauges sampled")
	}
}

// TestMetricsExportByteIdenticalAcrossRuns re-runs the same seed and demands
// byte-identical JSONL — the reproducibility claim of the metrics layer.
func TestMetricsExportByteIdenticalAcrossRuns(t *testing.T) {
	dump := func() []byte {
		t.Helper()
		rec := metrics.NewRecorder(5 * time.Second)
		_, err := Compare(Config{
			System:   &stubSystem{fragile: true},
			Seed:     7,
			Duration: 60 * time.Second,
			Fault:    FaultPlan{Kind: FaultTransient, InjectAt: 20 * time.Second, RecoverAt: 35 * time.Second},
			Metrics:  rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := dump()
	second := dump()
	if !bytes.Equal(first, second) {
		t.Fatal("metrics JSONL diverged between identical runs")
	}
}
