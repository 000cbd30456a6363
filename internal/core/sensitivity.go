package core

import (
	"fmt"
	"time"

	"stabl/internal/chain"
	"stabl/internal/stats"
)

// ResourceScaler is implemented by systems whose validators can be deployed
// on larger machines. STABL's Byzantine-node-tolerance experiment runs every
// chain on VMs with twice the resources (8 vCPU / 16 GB) to absorb the
// redundant load of the secure client (§3, §7).
type ResourceScaler interface {
	WithResources(scale float64) chain.System
}

// SecureResourceScale is the paper's resource bump for the secure-client
// experiment.
const SecureResourceScale = 2.0

// Comparison is the outcome of a baseline-vs-altered sensitivity
// measurement.
type Comparison struct {
	System string
	Fault  FaultPlan
	// Scenario names the composed fault timeline when the altered run was
	// a scenario experiment instead of a single-fault plan.
	Scenario string
	Baseline *RunResult
	Altered  *RunResult
	// Score is the sensitivity score of §3; Infinite when the altered
	// run lost liveness.
	Score stats.Score
	// InjectAt and RecoverAt are the altered run's timeline instants — the
	// first disruption and the last revert — that charts mark; zero when
	// there is none (nothing injected, or nothing ever reverted).
	InjectAt  time.Duration
	RecoverAt time.Duration
	// Recovered / RecoveryTime report how quickly throughput returned to
	// a sustained fraction of the baseline after RecoverAt; measured only
	// when the timeline reverts at least one disruption (RecoverAt > 0).
	Recovered    bool
	RecoveryTime time.Duration
}

// SensitivityGridStep is the eCDF grid step in seconds used for the score.
// 100 ms resolves the sub-second latency shifts of the secure-client
// experiment while keeping the score scale readable.
const SensitivityGridStep = 0.1

// Recovery detection parameters: a window of RecoveryWindow buckets must
// sustain RecoveryFraction of the baseline steady rate. The campaign engine
// reuses them so its stabilization metric agrees with Compare's recovery
// metric.
const (
	RecoveryWindow   = 5
	RecoveryFraction = 0.7
)

// BaselineConfig returns the fault-free counterpart of cfg: the same
// deployment, no injected failure and the default single-endpoint client.
// The baseline is independent of cfg.Fault, so campaigns compute it once per
// (system, seed) and share it across every fault cell as a Baseline.
func BaselineConfig(cfg Config) Config {
	cfg = cfg.withDefaults()
	cfg.Fault = FaultPlan{Kind: FaultNone}
	cfg.Scenario = nil
	cfg.Fanout = 1
	// A recorder instruments one run; the altered run keeps it, the
	// baseline must not write into the same one.
	cfg.Metrics = nil
	return cfg
}

// SteadyStateRate is the baseline reference rate used for recovery and
// stabilization detection: the mean rate over the second half of the
// pre-fault phase, skipping at most the first 60 s of warm-up.
func SteadyStateRate(baseline *RunResult, injectAt time.Duration) float64 {
	warmup := injectAt / 2
	if warmup > 60*time.Second {
		warmup = 60 * time.Second
	}
	return baseline.Throughput.MeanRate(warmup, injectAt)
}

// Compare runs the baseline and the altered environment described by
// cfg.Fault (or cfg.Scenario) and computes the sensitivity score.
func Compare(cfg Config) (*Comparison, error) {
	cfg = cfg.withDefaults()
	if cfg.System == nil {
		return nil, fmt.Errorf("core: config needs a System")
	}
	baseline, err := Run(BaselineConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	return NewBaseline(baseline).Compare(cfg)
}

// Baseline is a fault-free run to score altered runs against, its latencies
// sorted once for all of them.
type Baseline struct {
	Result *RunResult
	dist   stats.Dist
}

// NewBaseline prepares run, a BaselineConfig run of the configs it scores.
func NewBaseline(run *RunResult) *Baseline {
	return &Baseline{Result: run, dist: stats.NewDist(run.Latencies)}
}

// Compare runs only the altered environment described by cfg.Fault or
// cfg.Scenario and scores it against the baseline.
func (b *Baseline) Compare(cfg Config) (*Comparison, error) {
	cfg = cfg.withDefaults()
	if cfg.System == nil {
		return nil, fmt.Errorf("core: config needs a System")
	}

	// The secure client submits to t+1 validators; the paper also doubles
	// VM resources for this experiment on every chain.
	altered, err := Run(AlteredConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("altered run: %w", err)
	}
	return b.Score(cfg, altered)
}

// AlteredConfig returns the config of the altered run Compare would execute
// for cfg: identical except for the secure-client experiment, whose clients
// fan out to t+1 validators on doubled resources. Adaptive campaigns build
// the altered experiment themselves and need the same derivation.
func AlteredConfig(cfg Config) Config {
	cfg = cfg.withDefaults()
	if cfg.Fault.Kind == FaultSecureClient {
		cfg.Fanout = cfg.System.Tolerance(cfg.Validators) + 1
		if facing := cfg.clientFacing(); cfg.Fanout > facing {
			cfg.Fanout = facing
		}
		if scaler, ok := cfg.System.(ResourceScaler); ok {
			cfg.System = scaler.WithResources(SecureResourceScale)
		}
	}
	return cfg
}

// ScoreWithBaseline is NewBaseline(baseline).Score(cfg, altered).
func ScoreWithBaseline(cfg Config, baseline, altered *RunResult) (*Comparison, error) {
	return NewBaseline(baseline).Score(cfg, altered)
}

// Score computes the sensitivity comparison from an already-collected altered
// run. Compare is Run + this; adaptive campaigns call it directly with
// results collected from forked continuations.
func (b *Baseline) Score(cfg Config, altered *RunResult) (*Comparison, error) {
	cfg = cfg.withDefaults()
	baseline := b.Result
	cmp := &Comparison{
		System:   cfg.System.Name(),
		Fault:    cfg.Fault,
		Baseline: baseline,
		Altered:  altered,
	}
	if cfg.Scenario != nil {
		cmp.Scenario = cfg.Scenario.Name
	}
	cmp.Score = stats.Sensitivity(b.dist, altered.Latencies, SensitivityGridStep)
	if altered.LivenessLost {
		cmp.Score.Infinite = true
	}
	// Recovery is measured from the last instant any disruption is reverted,
	// against the steady rate before the first one hit. Compiling here
	// replays the altered run's timeline exactly: the derivation is pure,
	// keyed only on (seed, action).
	compiled, err := cfg.Timeline()
	if err != nil {
		return nil, err
	}
	cmp.InjectAt, cmp.RecoverAt = compiled.FirstDisrupt, compiled.LastRevert
	if cmp.RecoverAt > 0 {
		ref := SteadyStateRate(baseline, cmp.InjectAt)
		cmp.RecoveryTime, cmp.Recovered = altered.Throughput.RecoveryTime(
			cmp.RecoverAt, ref, RecoveryFraction, RecoveryWindow)
	}
	return cmp, nil
}

// String renders a comparison as one row of Fig 3.
func (c *Comparison) String() string {
	rec := ""
	if c.RecoverAt > 0 {
		if c.Recovered {
			rec = fmt.Sprintf(" recovery=%.0fs", c.RecoveryTime.Seconds())
		} else {
			rec = " recovery=never"
		}
	}
	return fmt.Sprintf("%-10s %-13s score=%s%s", c.System, c.Environment(), c.Score, rec)
}

// Environment names the altered environment: the fault kind, or
// "scenario:<name>".
func (c *Comparison) Environment() string {
	if c.Scenario != "" {
		return "scenario:" + c.Scenario
	}
	return c.Fault.Kind.String()
}
