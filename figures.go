package stabl

import (
	"fmt"

	"stabl/internal/core"
	"stabl/internal/stats"
)

// The figure runners regenerate the paper's per-run evaluation artifacts:
// the latency eCDFs of Fig 1 and the throughput series of Figs 4-6. Each
// takes a Config whose System field is ignored (the runner supplies the
// systems) and whose zero value reproduces the paper's deployment: 10
// validators, 5 clients at 40 tx/s, 400 virtual seconds, faults at 133 s,
// recovery at 266 s. The scores of Figs 3a-3d and 7 and the recovery times
// are the paper suite's cells (RunPaperSuite), which share one baseline per
// chain; RenderFig3, RenderRadar and RenderRecovery draw them.

// ECDFFigure is the paper's Fig 1: the latency eCDFs of a baseline and an
// altered run of one system, whose area difference is the sensitivity.
type ECDFFigure struct {
	System   string
	Baseline []Point
	Altered  []Point
	Score    Score
}

// Fig1 reproduces Fig 1: Aptos latency distributions with and without f = t
// crashes.
func Fig1(cfg Config) (*ECDFFigure, error) {
	cfg.System = NewAptos()
	cfg.Fault.Kind = FaultCrash
	cmp, err := core.Compare(cfg)
	if err != nil {
		return nil, err
	}
	return &ECDFFigure{
		System:   cmp.System,
		Baseline: stats.NewDist(cmp.Baseline.Latencies).Curve(),
		Altered:  stats.NewDist(cmp.Altered.Latencies).Curve(),
		Score:    cmp.Score,
	}, nil
}

// compareAll compares all five blockchains under one fault kind, keeping
// the per-run series (throughput, latencies) that Figs 4-6 plot.
func compareAll(cfg Config, kind FaultKind) ([]*Comparison, error) {
	out := make([]*Comparison, 0, 5)
	for _, sys := range Systems() {
		c := cfg
		c.System = sys
		c.Fault.Kind = kind
		cmp, err := core.Compare(c)
		if err != nil {
			return nil, fmt.Errorf("%s/%v: %w", sys.Name(), kind, err)
		}
		out = append(out, cmp)
	}
	return out, nil
}

// Fig4 reproduces Fig 4: throughput over time of the five blockchains as
// f = t nodes crash at the injection time. The returned comparisons carry
// the baseline and altered series in Baseline.Throughput and
// Altered.Throughput.
func Fig4(cfg Config) ([]*Comparison, error) { return compareAll(cfg, FaultCrash) }

// Fig5 reproduces Fig 5: throughput over time as f = t+1 nodes stop and are
// later restarted.
func Fig5(cfg Config) ([]*Comparison, error) { return compareAll(cfg, FaultTransient) }

// Fig6 reproduces Fig 6: throughput over time as f = t+1 nodes are
// partitioned and later healed.
func Fig6(cfg Config) ([]*Comparison, error) { return compareAll(cfg, FaultPartition) }
