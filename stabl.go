// Package stabl is a Go reproduction of STABL (Sensitivity Testing and
// Analysis for BLockchains, Middleware '25): a benchmark suite that measures
// how sensitive blockchain systems are to failures.
//
// The package deploys simulated-but-faithful models of five Byzantine
// fault-tolerant blockchains — Algorand, Aptos, Avalanche, Redbelly and
// Solana — on a deterministic discrete-event network, drives a constant
// DIABLO-style workload against them, injects crashes, transient failures
// and partitions through observer processes, and scores each system by the
// sensitivity metric of the paper: the difference between the areas under
// the latency eCDFs of a baseline and an altered run. A system that stops
// committing transactions after a failure receives an infinite score.
//
// Quick start:
//
//	cmp, err := stabl.Compare(stabl.Config{
//		System: stabl.NewRedbelly(),
//		Fault:  stabl.FaultPlan{Kind: stabl.FaultTransient},
//	})
//	// cmp.Score, cmp.RecoveryTime, cmp.Altered.Throughput ...
//
// Every experiment runs in virtual time: the paper's 400-second deployments
// complete in a few wall-clock seconds and are reproducible bit-for-bit
// from their seed.
package stabl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"stabl/internal/algorand"
	"stabl/internal/aptos"
	"stabl/internal/avalanche"
	"stabl/internal/campaign"
	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/metrics"
	"stabl/internal/overlay"
	"stabl/internal/redbelly"
	"stabl/internal/scenario"
	"stabl/internal/solana"
	"stabl/internal/stats"
	"stabl/internal/workload"
)

// Re-exported harness types. See the internal/core package for field
// documentation.
type (
	// Config describes one experiment deployment.
	Config = core.Config
	// FaultPlan describes the injected adversarial environment.
	FaultPlan = core.FaultPlan
	// FaultKind selects the adversarial environment.
	FaultKind = core.FaultKind
	// RunResult is the measurement of a single run.
	RunResult = core.RunResult
	// Comparison is a baseline-vs-altered sensitivity measurement.
	Comparison = core.Comparison
	// System is one blockchain model.
	System = chain.System
	// Score is a sensitivity score (possibly infinite).
	Score = stats.Score
	// TimeSeries is a per-second throughput series.
	TimeSeries = stats.TimeSeries
	// Point is one point of an eCDF curve.
	Point = stats.Point
	// Profile shapes a client's send rate over time.
	Profile = workload.Profile
)

// Workload rate profiles (the paper's future-work fluctuating workloads).
var (
	// ConstantProfile is the paper's constant-rate workload.
	ConstantProfile = workload.Constant
	// BurstProfile alternates base rate and rate*factor bursts.
	BurstProfile = workload.Burst
	// RampProfile grows the rate linearly.
	RampProfile = workload.Ramp
	// SineProfile oscillates the rate smoothly.
	SineProfile = workload.Sine
)

// Fault kinds (paper §4-§7).
const (
	FaultNone         = core.FaultNone
	FaultCrash        = core.FaultCrash
	FaultTransient    = core.FaultTransient
	FaultPartition    = core.FaultPartition
	FaultSecureClient = core.FaultSecureClient
	FaultSlow         = core.FaultSlow
)

// Report is the JSON digest of one comparison.
type Report = core.Report

// Run executes a single experiment run.
func Run(cfg Config) (*RunResult, error) { return core.Run(cfg) }

// Chaos-campaign types for systematic fault-space exploration. See the
// internal/campaign package for field documentation.
type (
	// CampaignSpec declares a fault-space sweep: grid dimensions, seeds,
	// optional random sampling and the shared deployment template.
	CampaignSpec = campaign.Spec
	// CampaignOptions configure campaign execution (workers, progress).
	CampaignOptions = campaign.Options
	// CampaignResult aggregates a campaign: per-cell outcomes,
	// cross-seed points, sensitivity surfaces and per-system rankings.
	CampaignResult = campaign.Result
	// CampaignCell is the outcome of one executed campaign cell.
	CampaignCell = campaign.CellResult
	// CampaignPoint aggregates one fault-space coordinate across seeds.
	CampaignPoint = campaign.Point
	// CampaignCheckpointStats reports how many cells an adaptive or bisect
	// campaign served from forked checkpoints instead of full replays.
	CampaignCheckpointStats = campaign.CheckpointStats
	// CampaignBisect is mode "bisect"'s block: the axis each family is
	// bisected along to its tolerance boundary, and the failure criterion.
	CampaignBisect = campaign.Bisect
)

// RunCampaign expands the spec into its fault-space grid and executes every
// cell on a bounded worker pool against the built-in system registry
// (opts.Resolve overrides the registry when set). A panicking model run
// fails its cell, never the campaign.
func RunCampaign(ctx context.Context, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	if opts.Resolve == nil {
		opts.Resolve = SystemByName
	}
	return campaign.Run(ctx, spec, opts)
}

// RunPaperSuite is the multi-seed CI sweep the paper pitches STABL for, as a
// campaign preset: the spec's systems × faults (by default crash, transient,
// partition and the secure client) × seeds, each node fault at the paper's
// count — f = t for crashes, t+1 otherwise — where RunCampaign sweeps
// t + countDeltas.
func RunPaperSuite(ctx context.Context, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	if opts.Resolve == nil {
		opts.Resolve = SystemByName
	}
	return campaign.RunPaperSuite(ctx, spec, opts)
}

// ParseCampaignSpec reads a JSON campaign spec (see specs/campaign-*.json).
func ParseCampaignSpec(r io.Reader) (CampaignSpec, error) { return campaign.ParseSpec(r) }

// Virtual-time instrumentation types. See the internal/metrics package for
// the determinism and single-run guarantees.
type (
	// MetricsRecorder collects one run's counters, gauges, latency
	// observations and consensus events keyed by the simulated clock;
	// attach via Config.Metrics or CampaignOptions.Metrics.
	MetricsRecorder = metrics.Recorder
	// MetricsEvent is one protocol-level consensus event.
	MetricsEvent = metrics.Event
	// MetricsRunInfo identifies the run a recorder instrumented.
	MetricsRunInfo = metrics.RunInfo
	// CampaignCoord identifies one fault-space coordinate of a campaign.
	CampaignCoord = campaign.Cell
)

// NewMetricsRecorder creates a recorder aggregating at the given interval
// (metrics.DefaultInterval when zero). One recorder instruments exactly one
// run and is not safe for concurrent use.
func NewMetricsRecorder(interval time.Duration) *MetricsRecorder {
	return metrics.NewRecorder(interval)
}

// TimelineSVG renders a recorded run as an SVG timeline: latency and commit
// rate per interval, fault inject/recover markers, and event lanes for
// leader changes, timeouts and node lifecycle transitions.
func TimelineSVG(rec *MetricsRecorder, title string) string {
	return metrics.TimelineSVG(rec, title)
}

// ParseFaultKind is the inverse of FaultKind.String, the canonical fault
// name mapping shared by the CLI and all spec formats. Composite faults
// (crash waves, flapping links, loss/jitter) are expressed as scenarios
// instead — see ParseScenario and BuiltinScenario.
func ParseFaultKind(name string) (FaultKind, error) { return core.ParseFaultKind(name) }

// Scenario types: composable multi-phase fault timelines. See the
// internal/scenario package for the action grammar and compilation rules.
type (
	// Scenario is a validated multi-phase fault timeline; set it on
	// Config.Scenario (mutually exclusive with a non-none Fault.Kind).
	Scenario = scenario.Scenario
	// ScenarioSpec is the JSON form of a scenario.
	ScenarioSpec = scenario.Spec
	// ScenarioAction is the JSON form of one scenario timeline action.
	ScenarioAction = scenario.ActionSpec
)

// Gossip-overlay types: the kadcast broadcast overlay replacing the legacy
// full mesh. See the internal/overlay package for the topology derivation
// and routing rules.
type (
	// OverlayConfig selects and tunes a gossip overlay; set it on
	// Config.Overlay (the zero value keeps the full mesh).
	OverlayConfig = overlay.Config
	// OverlayStats aggregates a run's overlay routing counters (origins,
	// relays, duplicates, stall skips); see RunResult.Overlay.
	OverlayStats = overlay.Stats
)

// ParseScenario reads and validates a JSON scenario spec (the scenario
// action grammar: crash, restart, partition, heal, slow, loss, jitter, flap
// over node-set selectors).
func ParseScenario(r io.Reader) (*Scenario, error) { return scenario.Parse(r) }

// BuiltinScenarios lists the canned scenario names (cascade, flap,
// lossy-wan, rolling-restart, ...).
func BuiltinScenarios() []string { return scenario.Builtins() }

// BuiltinScenario returns a canned scenario spec laid out over a run of the
// given duration (the default 400 s when zero).
func BuiltinScenario(name string, duration time.Duration) (ScenarioSpec, error) {
	return scenario.Builtin(name, duration)
}

// NewReport digests a comparison for machine consumption.
func NewReport(cmp *Comparison) Report { return core.NewReport(cmp) }

// Spec is the JSON experiment description (see internal/core.Spec).
type Spec = core.Spec

// ValidateSpec lints one spec document without running anything. It accepts
// both formats the CLI consumes — experiment specs (a single "system") and
// campaign specs (a "systems" list, detected by that key) — and returns
// which kind it saw. Unknown fields, unknown system/fault names, malformed
// scenarios and undeployable configurations all fail.
func ValidateSpec(r io.Reader) (kind string, err error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return "", fmt.Errorf("stabl: spec is not a JSON object: %w", err)
	}
	if _, ok := probe["systems"]; ok {
		spec, err := campaign.ParseSpec(bytes.NewReader(raw))
		if err != nil {
			return "campaign", err
		}
		// Expanding against the registry checks system names, fault
		// kinds and scenario timelines without running any cell.
		_, err = campaign.Validate(spec, SystemByName)
		return "campaign", err
	}
	spec, err := core.ParseSpec(bytes.NewReader(raw))
	if err != nil {
		return "experiment", err
	}
	cfg, err := spec.Config(SystemByName)
	if err != nil {
		return "experiment", err
	}
	return "experiment", cfg.Validate()
}

// Compare runs the baseline and altered environments and computes the
// sensitivity score.
func Compare(cfg Config) (*Comparison, error) { return core.Compare(cfg) }

// Sensitivity computes the paper's sensitivity score between two latency
// sample sets (seconds), on the harness's default grid.
func Sensitivity(baseline, altered []float64) Score {
	return stats.Sensitivity(stats.NewDist(baseline), altered, core.SensitivityGridStep)
}

// Constructors for the five evaluated blockchains, with the
// production-like default parameters used by the experiments.
func NewAlgorand() System  { return algorand.Default() }
func NewAptos() System     { return aptos.Default() }
func NewAvalanche() System { return avalanche.Default() }
func NewRedbelly() System  { return redbelly.Default() }
func NewSolana() System    { return solana.Default() }

// Systems returns fresh instances of all five evaluated blockchains, in the
// paper's order.
func Systems() []System {
	return []System{NewAlgorand(), NewAptos(), NewAvalanche(), NewRedbelly(), NewSolana()}
}

// SystemByName returns a fresh instance of the named blockchain
// (case-sensitive, as printed by System.Name).
func SystemByName(name string) (System, error) {
	for _, sys := range Systems() {
		if sys.Name() == name {
			return sys, nil
		}
	}
	return nil, fmt.Errorf("stabl: unknown system %q (have Algorand, Aptos, Avalanche, Redbelly, Solana)", name)
}
