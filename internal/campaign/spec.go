// Package campaign implements STABL's chaos-campaign engine: systematic
// exploration of the fault space instead of the paper's hand-picked fault
// points. A declarative Spec expands into a grid (or a seeded-random sample)
// of experiment cells across {system, fault kind, fault count, inject time,
// outage duration, slow-by, seed}; the engine executes the cells on a
// bounded worker pool with per-cell panic isolation and aggregates the
// outcomes into per-dimension sensitivity surfaces and per-system rankings
// of the least-resilient cells. Every cell is an independent deterministic
// simulation, so results are byte-identical at any worker count.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"stabl/internal/core"
	"stabl/internal/overlay"
	"stabl/internal/scenario"
)

// Spec is the JSON-serializable description of a campaign, the counterpart
// of core.Spec for a whole fault-space sweep:
//
//	{
//	  "systems": ["Redbelly", "Algorand"],
//	  "faults": ["crash", "transient"],
//	  "countDeltas": [-1, 0, 1, 2],
//	  "injectSecs": [40, 80],
//	  "outageSecs": [30, 60],
//	  "seeds": [1, 2],
//	  "base": {"validators": 10, "durationSec": 160}
//	}
type Spec struct {
	// Systems under test, by registry name. Required.
	Systems []string `json:"systems"`
	// Faults are the fault kinds to inject; defaults to the four
	// node-affecting kinds: crash, transient, partition, slow.
	Faults []string `json:"faults,omitempty"`
	// CountDeltas are fault counts relative to each system's claimed
	// tolerance t: delta d explores f = t+d. Defaults to {0} (the paper's
	// f = t). Non-positive resolved counts are skipped; {-1, 0, 1, 2}
	// explores f = t-1 … t+2 around the tolerance boundary.
	CountDeltas []int `json:"countDeltas,omitempty"`
	// InjectSecs are fault injection times; defaults to {133}.
	InjectSecs []float64 `json:"injectSecs,omitempty"`
	// OutageSecs are outage durations for recovering faults (transient,
	// partition, slow): the fault heals at inject+outage. Defaults to
	// {133}.
	OutageSecs []float64 `json:"outageSecs,omitempty"`
	// SlowBySecs are per-interface delays for the slow fault; defaults to
	// {30}.
	SlowBySecs []float64 `json:"slowBySecs,omitempty"`
	// Scenarios are composed multi-phase fault timelines (see
	// internal/scenario) swept alongside — or, when Faults is empty,
	// instead of — the single-fault kinds. Each scenario expands into one
	// cell per intensity per seed.
	Scenarios []scenario.Spec `json:"scenarios,omitempty"`
	// Intensities scale every scenario's degradation magnitudes (loss
	// rate, slow delay, jitter bound) via scenario.Spec.Scaled; defaults
	// to {1}. Ignored when Scenarios is empty.
	Intensities []float64 `json:"intensities,omitempty"`
	// CommitteeSizes sweeps the sortition committee size (the scale axis):
	// size 0 runs full membership, positive sizes require every swept
	// system to support committees (see core.Config.CommitteeSize).
	// Defaults to {Base.CommitteeSize}, keeping the axis inert unless
	// declared.
	CommitteeSizes []int `json:"committeeSizes,omitempty"`
	// Overlays sweeps the gossip-overlay topology: "" runs the legacy full
	// mesh, any overlay.Kinds() name routes validator gossip over that
	// structured overlay (see core.Config.Overlay). Defaults to
	// {Base.Overlay.Topology}, keeping the axis inert unless declared.
	Overlays []string `json:"overlays,omitempty"`
	// Seeds repeat every coordinate; defaults to {1, 2, 3}.
	Seeds []int64 `json:"seeds,omitempty"`
	// Sample, when positive and smaller than the full grid, runs only a
	// seeded-random sample of Sample cells (drawn without replacement
	// with SampleSeed), trading coverage for wall-clock time on huge
	// grids.
	Sample int `json:"sample,omitempty"`
	// SampleSeed seeds the sample draw; the same spec always selects the
	// same cells.
	SampleSeed int64 `json:"sampleSeed,omitempty"`
	// Mode selects the execution strategy: "grid" (or empty) runs every
	// cell as an independent from-scratch simulation; "adaptive" groups
	// cells that share their pre-fault prefix (same system, seed, fault
	// kind or scenario, inject and outage instants — differing only in
	// swept magnitudes), runs each family's prefix once, checkpoints it at
	// the first disruptive action and serves the remaining members by
	// rewinding the checkpoint. Results are byte-identical between the
	// modes and across worker counts; only wall-clock time changes.
	// "bisect" searches each family for its pass/fail boundary along the
	// Bisect block's axis instead of running the axis' swept values.
	Mode string `json:"mode,omitempty"`
	// Bisect configures mode "bisect"; it is an error in any other mode.
	Bisect *Bisect `json:"bisect,omitempty"`
	// Base is the deployment template shared by every cell (validators,
	// clients, rate, duration, profile, …). Its system, seed, fault and
	// scenario fields are ignored: the campaign dimensions override them.
	Base core.Spec `json:"base,omitempty"`
}

// Execution modes for Spec.Mode.
const (
	// ModeGrid runs every cell from scratch (the default).
	ModeGrid = "grid"
	// ModeAdaptive forks shared checkpoints at the fault-injection
	// instant.
	ModeAdaptive = "adaptive"
	// ModeBisect bisects every family along one axis, each probe a forked
	// continuation of the family checkpoint.
	ModeBisect = "bisect"
)

// Bisect is mode "bisect"'s block. Each cell of the spec's grid, with the
// axis dimension collapsed, is one bisection: the probes are that cell at
// axis values Bisect chooses, run one at a time from one family checkpoint.
//
//	"bisect": {"axis": "count", "lo": 1, "hi": 5}
type Bisect struct {
	// Axis is the swept scalar: "count" (the absolute fault count of a node
	// fault), "slowby" (the slow fault's delay, seconds) or "intensity" (a
	// scenario's magnitude scale).
	Axis string `json:"axis"`
	// Lo and Hi bracket the search; Lo is expected to pass and Hi to fail.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Resolution is the bracket width at which bisection stops: 1 on the
	// count axis, (Hi-Lo)/64 when zero elsewhere.
	Resolution float64 `json:"resolution,omitempty"`
	// Threshold: a finite score at or above it also fails a probe. Zero
	// means only liveness loss fails.
	Threshold float64 `json:"threshold,omitempty"`
	// Shrink delta-debugs the scenario at the first failing intensity to a
	// minimal failing spec (axis intensity only). Its candidates change the
	// scenario's shape, so each one is a full replay.
	Shrink bool `json:"shrink,omitempty"`
}

// Axis names for Bisect.Axis.
const (
	AxisCount     = "count"
	AxisSlowBy    = "slowby"
	AxisIntensity = "intensity"
)

// at returns the cell at axis value x.
func (b *Bisect) at(c Cell, x float64) Cell {
	switch b.Axis {
	case AxisCount:
		c.Count = int(math.Round(x))
	case AxisSlowBy:
		c.SlowBySec = x
	case AxisIntensity:
		c.Intensity = x
	}
	return c
}

// fails is a probe's verdict: liveness lost, or a score at the threshold.
func (b *Bisect) fails(score float64, infinite bool) bool {
	return infinite || (b.Threshold > 0 && score >= b.Threshold)
}

func (b *Bisect) validate(s Spec) error {
	if b == nil {
		return fmt.Errorf("campaign: mode %q needs a \"bisect\" block", ModeBisect)
	}
	// What each axis sweeps: a node fault's count, the slow fault's delay,
	// a scenario's magnitudes.
	sweeps, ok := map[string]func(core.FaultKind) bool{
		AxisCount:     core.FaultKind.NeedsNodes,
		AxisSlowBy:    func(k core.FaultKind) bool { return k == core.FaultSlow },
		AxisIntensity: func(core.FaultKind) bool { return false },
	}[b.Axis]
	if !ok {
		return fmt.Errorf("campaign: unknown bisect axis %q (valid: %s|%s|%s)", b.Axis, AxisCount, AxisSlowBy, AxisIntensity)
	}
	for _, name := range s.Faults {
		if kind, _ := core.ParseFaultKind(name); !sweeps(kind) { // validate parsed every name
			return fmt.Errorf("campaign: bisect axis %s cannot sweep fault %s", b.Axis, name)
		}
	}
	switch {
	case b.Axis == AxisIntensity && len(s.Scenarios) == 0:
		return fmt.Errorf("campaign: bisect axis intensity needs a scenario")
	case b.Axis != AxisIntensity && len(s.Scenarios) > 0:
		return fmt.Errorf("campaign: bisect axis %s sweeps a fault, not scenarios", b.Axis)
	case b.Hi <= b.Lo:
		return fmt.Errorf("campaign: bisect hi (%g) must exceed lo (%g)", b.Hi, b.Lo)
	case b.Resolution < 0 || b.Threshold < 0:
		return fmt.Errorf("campaign: bisect resolution and threshold must be non-negative")
	case b.Shrink && b.Axis != AxisIntensity:
		return fmt.Errorf("campaign: bisect shrink needs axis intensity, got %s", b.Axis)
	}
	return nil
}

// ParseSpec decodes a campaign spec from JSON, rejecting unknown fields.
func ParseSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse spec: %w", err)
	}
	return spec, nil
}

// WriteJSON encodes the spec as indented JSON.
func (s Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func (s Spec) withDefaults() Spec {
	// A spec that sweeps only scenarios gets no implicit single-fault
	// cells; the classic fault default applies to everything else.
	if len(s.Faults) == 0 && len(s.Scenarios) == 0 {
		s.Faults = []string{
			core.FaultCrash.String(), core.FaultTransient.String(),
			core.FaultPartition.String(), core.FaultSlow.String(),
		}
	}
	if len(s.Intensities) == 0 {
		s.Intensities = []float64{1}
	}
	if len(s.CountDeltas) == 0 {
		s.CountDeltas = []int{0}
	}
	if len(s.InjectSecs) == 0 {
		s.InjectSecs = []float64{133}
	}
	if len(s.OutageSecs) == 0 {
		s.OutageSecs = []float64{133}
	}
	if len(s.SlowBySecs) == 0 {
		s.SlowBySecs = []float64{30}
	}
	if len(s.CommitteeSizes) == 0 {
		s.CommitteeSizes = []int{s.Base.CommitteeSize}
	}
	if len(s.Overlays) == 0 {
		s.Overlays = []string{s.Base.Overlay.Topology}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1, 2, 3}
	}
	return s
}

func (s Spec) validate() error {
	if len(s.Systems) == 0 {
		return fmt.Errorf("campaign: spec needs at least one system")
	}
	for _, name := range s.Faults {
		if _, err := core.ParseFaultKind(name); err != nil {
			return err
		}
	}
	for _, v := range s.InjectSecs {
		if v <= 0 {
			return fmt.Errorf("campaign: injectSecs must be positive, got %v", v)
		}
	}
	for _, v := range s.OutageSecs {
		if v <= 0 {
			return fmt.Errorf("campaign: outageSecs must be positive, got %v", v)
		}
	}
	for _, v := range s.SlowBySecs {
		if v <= 0 {
			return fmt.Errorf("campaign: slowBySecs must be positive, got %v", v)
		}
	}
	if s.Sample < 0 {
		return fmt.Errorf("campaign: sample must be non-negative, got %d", s.Sample)
	}
	for _, v := range s.CommitteeSizes {
		if v < 0 {
			return fmt.Errorf("campaign: committeeSizes must be non-negative, got %d", v)
		}
	}
	for _, name := range s.Overlays {
		if name == "" {
			continue // legacy mesh
		}
		if _, err := overlay.ParseKind(name); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	switch s.Mode {
	case "", ModeGrid, ModeAdaptive:
		if s.Bisect != nil {
			return fmt.Errorf("campaign: a bisect block needs mode %q", ModeBisect)
		}
	case ModeBisect:
		if err := s.Bisect.validate(s); err != nil {
			return err
		}
	default:
		return fmt.Errorf("campaign: unknown mode %q (valid: %s|%s|%s)", s.Mode, ModeGrid, ModeAdaptive, ModeBisect)
	}
	seen := make(map[string]bool, len(s.Scenarios))
	for _, sc := range s.Scenarios {
		if _, err := sc.Build(); err != nil {
			return err
		}
		if seen[sc.Name] {
			return fmt.Errorf("campaign: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	for _, v := range s.Intensities {
		if v <= 0 {
			return fmt.Errorf("campaign: intensities must be positive, got %v", v)
		}
	}
	return nil
}

// scenarioByName finds the named scenario spec, the lookup cellConfig uses to
// materialize a scenario cell.
func (s Spec) scenarioByName(name string) (scenario.Spec, bool) {
	for _, sc := range s.Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return scenario.Spec{}, false
}
