package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestReportDigestsComparison(t *testing.T) {
	cmp, err := Compare(Config{
		System:   &stubSystem{fragile: true},
		Seed:     1,
		Duration: 60 * time.Second,
		Fault:    FaultPlan{Kind: FaultTransient, InjectAt: 20 * time.Second, RecoverAt: 35 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(cmp)
	if rep.System != "Stub" || rep.Fault != "transient" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Baseline.Latency.Count == 0 || rep.Altered.Latency.Count == 0 {
		t.Fatal("latency summaries empty")
	}
	if rep.KSDistance <= 0 || rep.KSDistance > 1 {
		t.Fatalf("KS = %v", rep.KSDistance)
	}
	if !rep.Recovered {
		t.Fatal("recovery flag lost")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ksDistance"`) {
		t.Fatalf("json = %s", buf.String())
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Score != rep.Score {
		t.Fatal("score did not round-trip")
	}
}
