package core

import (
	"encoding/json"
	"io"
	"time"

	"stabl/internal/stats"
)

// RunReport is the JSON-friendly digest of one run: summaries instead of
// raw samples, so reports stay small enough for CI artifacts.
type RunReport struct {
	Latency        stats.Summary `json:"latency"`
	ThroughputMean float64       `json:"throughputMeanTps"`
	UniqueCommits  int           `json:"uniqueCommits"`
	Submitted      int           `json:"submitted"`
	Pending        int           `json:"pending"`
	LastCommitSec  float64       `json:"lastCommitSec"`
	LivenessLost   bool          `json:"livenessLost"`
	MaxHeight      int           `json:"maxHeight"`
	// Integrity lists the run's IntegrityErrors; clean runs omit it.
	Integrity []string `json:"integrity,omitempty"`
}

// NewRunReport digests a RunResult.
func NewRunReport(res *RunResult) RunReport {
	total := time.Duration(len(res.Throughput.Counts)) * res.Throughput.Bucket
	return RunReport{
		Latency:        stats.Summarize(res.Latencies),
		ThroughputMean: res.Throughput.MeanRate(0, total),
		UniqueCommits:  res.UniqueCommits,
		Submitted:      res.Submitted,
		Pending:        res.Pending,
		LastCommitSec:  res.LastCommitAt.Seconds(),
		LivenessLost:   res.LivenessLost,
		MaxHeight:      res.MaxHeight,
		Integrity:      res.IntegrityErrors,
	}
}

// Report is the JSON-friendly digest of a sensitivity comparison, the unit
// STABL emits into a CI pipeline.
type Report struct {
	System string `json:"system"`
	Fault  string `json:"fault"`
	// Scenario names the composed fault timeline for scenario runs (Fault
	// is "none" then).
	Scenario    string    `json:"scenario,omitempty"`
	Score       float64   `json:"score"`
	Infinite    bool      `json:"infinite"`
	Benefit     bool      `json:"benefit"`
	KSDistance  float64   `json:"ksDistance"`
	Recovered   bool      `json:"recovered,omitempty"`
	RecoverySec float64   `json:"recoverySec,omitempty"`
	Baseline    RunReport `json:"baseline"`
	Altered     RunReport `json:"altered"`
}

// NewReport digests a Comparison.
func NewReport(cmp *Comparison) Report {
	return Report{
		System:      cmp.System,
		Fault:       cmp.Fault.Kind.String(),
		Scenario:    cmp.Scenario,
		Score:       cmp.Score.Value,
		Infinite:    cmp.Score.Infinite,
		Benefit:     cmp.Score.Benefit,
		KSDistance:  stats.KolmogorovSmirnov(cmp.Baseline.Latencies, cmp.Altered.Latencies),
		Recovered:   cmp.Recovered,
		RecoverySec: cmp.RecoveryTime.Seconds(),
		Baseline:    NewRunReport(cmp.Baseline),
		Altered:     NewRunReport(cmp.Altered),
	}
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
