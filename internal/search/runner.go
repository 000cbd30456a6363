package search

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"stabl/internal/core"
	"stabl/internal/scenario"
)

// Known axis names for Options.Axis.
const (
	// AxisCount sweeps the fault count f of a single-fault plan.
	AxisCount = "count"
	// AxisSlowBy sweeps the injected delay (seconds) of a slow fault.
	AxisSlowBy = "slowby"
	// AxisIntensity sweeps a scenario's degradation magnitudes (loss
	// rate, slow delay, jitter bound) via scenario.Spec.Scaled.
	AxisIntensity = "intensity"
)

// Options configure a tolerance-boundary search over one system.
type Options struct {
	// Base is the experiment template: system, seed, deployment and — for
	// the count/slowby axes — the fault plan. Its Scenario field must be
	// nil; scenario searches pass the spec separately so it can be scaled
	// and shrunk.
	Base core.Config
	// Scenario is the composed fault timeline for the intensity axis.
	Scenario *scenario.Spec
	// Axis is the swept scalar; Lo/Hi/Resolution come from the axis.
	Axis Axis
	// Threshold: a finite sensitivity score at or above it also counts as
	// failure. Zero means only liveness loss fails.
	Threshold float64
	// Shrink additionally minimizes the failing scenario found at the
	// boundary (intensity axis only).
	Shrink bool
	// Progress, when set, is called after every probe run.
	Progress func(x float64, fail bool, cmp *core.Comparison)
}

// ProbeReport is one probe of the search with its measured score.
type ProbeReport struct {
	X        float64 `json:"x"`
	Fail     bool    `json:"fail"`
	Score    float64 `json:"score"`
	Infinite bool    `json:"infinite"`
}

// Result is the outcome of a boundary search.
type Result struct {
	System    string  `json:"system"`
	Seed      int64   `json:"seed"`
	Axis      string  `json:"axis"`
	Scenario  string  `json:"scenario,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Boundary bracket, as in Boundary.
	HavePass  bool    `json:"havePass"`
	HaveFail  bool    `json:"haveFail"`
	LastPass  float64 `json:"lastPass"`
	FirstFail float64 `json:"firstFail"`
	// Probes lists every boundary probe in evaluation order.
	Probes []ProbeReport `json:"probes"`
	// Shrunk is the minimal failing scenario at the FirstFail intensity
	// (only with Options.Shrink on a bracketed intensity search).
	Shrunk *ShrinkResult `json:"shrunk,omitempty"`
	// Runs counts every simulation executed, baseline included.
	Runs int `json:"runs"`
}

// Run executes the boundary search: one shared baseline run, then a
// bisection of the axis, each probe scored against the baseline exactly as a
// campaign cell is, then (optionally) the scenario shrink at the boundary.
func Run(opts Options) (*Result, error) {
	base := opts.Base
	if base.System == nil {
		return nil, fmt.Errorf("search: options need a System")
	}
	if base.Scenario != nil {
		return nil, fmt.Errorf("search: set Options.Scenario (the spec), not Base.Scenario")
	}
	switch opts.Axis.Name {
	case AxisCount:
		opts.Axis.Integer = true
		if !base.Fault.Kind.NeedsNodes() {
			return nil, fmt.Errorf("search: axis count needs a node-affecting fault, got %s", base.Fault.Kind)
		}
	case AxisSlowBy:
		if base.Fault.Kind != core.FaultSlow {
			return nil, fmt.Errorf("search: axis slowby needs fault slow, got %s", base.Fault.Kind)
		}
	case AxisIntensity:
		if opts.Scenario == nil {
			return nil, fmt.Errorf("search: axis intensity needs a scenario")
		}
		if base.Fault.Kind != core.FaultNone {
			return nil, fmt.Errorf("search: axis intensity is exclusive with a fault plan, got %s", base.Fault.Kind)
		}
	default:
		return nil, fmt.Errorf("search: unknown axis %q (valid: %s|%s|%s)",
			opts.Axis.Name, AxisCount, AxisSlowBy, AxisIntensity)
	}

	res := &Result{
		System:    base.System.Name(),
		Seed:      base.Seed,
		Axis:      opts.Axis.Name,
		Threshold: opts.Threshold,
	}
	if opts.Scenario != nil {
		res.Scenario = opts.Scenario.Name
	}

	baseline, err := core.Run(core.BaselineConfig(base))
	if err != nil {
		return nil, fmt.Errorf("search: baseline: %w", err)
	}
	res.Runs++

	score := func(cfg core.Config) (bool, *core.Comparison, error) {
		cmp, err := core.CompareWithBaseline(cfg, baseline)
		if err != nil {
			return false, nil, err
		}
		res.Runs++
		fail := cmp.Score.Infinite ||
			(opts.Threshold > 0 && cmp.Score.Value >= opts.Threshold)
		return fail, cmp, nil
	}
	probe := func(x float64) (bool, error) {
		cfg, err := applyAxis(base, opts.Scenario, opts.Axis.Name, x)
		if err != nil {
			return false, err
		}
		fail, cmp, err := score(cfg)
		if err != nil {
			return false, err
		}
		res.Probes = append(res.Probes, ProbeReport{
			X: x, Fail: fail, Score: cmp.Score.Value, Infinite: cmp.Score.Infinite,
		})
		if opts.Progress != nil {
			opts.Progress(x, fail, cmp)
		}
		return fail, nil
	}

	b, err := Bisect(opts.Axis, probe)
	if err != nil {
		return nil, err
	}
	res.HavePass, res.HaveFail = b.HavePass, b.HaveFail
	res.LastPass, res.FirstFail = b.LastPass, b.FirstFail

	if opts.Shrink && opts.Axis.Name == AxisIntensity && b.HaveFail {
		failing := opts.Scenario.Scaled(b.FirstFail)
		d := base.Deployment()
		shrunk, err := Shrink(failing, d.Validators-d.Clients, func(spec scenario.Spec) (bool, error) {
			cfg := base
			sc, err := spec.Build()
			if err != nil {
				return false, err
			}
			cfg.Scenario = sc
			fail, _, err := score(cfg)
			return fail, err
		})
		if err != nil {
			return nil, err
		}
		res.Shrunk = shrunk
	}
	return res, nil
}

// applyAxis materializes the config for one probe value.
func applyAxis(base core.Config, spec *scenario.Spec, axis string, x float64) (core.Config, error) {
	cfg := base
	switch axis {
	case AxisCount:
		cfg.Fault.Count = int(math.Round(x))
	case AxisSlowBy:
		cfg.Fault.SlowBy = time.Duration(x * float64(time.Second))
	case AxisIntensity:
		scaled := spec.Scaled(x)
		sc, err := scaled.Build()
		if err != nil {
			return cfg, err
		}
		cfg.Scenario = sc
	}
	return cfg, nil
}

// WriteJSON encodes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the result as a human-readable report.
func (r *Result) WriteText(w io.Writer) error {
	env := r.Axis
	if r.Scenario != "" {
		env = fmt.Sprintf("scenario %s, axis %s", r.Scenario, r.Axis)
	}
	fmt.Fprintf(w, "search: %s seed=%d (%s)\n", r.System, r.Seed, env)
	for _, p := range r.Probes {
		verdict := "pass"
		if p.Fail {
			verdict = "FAIL"
		}
		scoreStr := fmt.Sprintf("%.4f", p.Score)
		if p.Infinite {
			scoreStr = "inf"
		}
		fmt.Fprintf(w, "  probe %s=%-8g score=%-8s %s\n", r.Axis, p.X, scoreStr, verdict)
	}
	switch {
	case r.HavePass && r.HaveFail:
		fmt.Fprintf(w, "boundary: last pass %s=%g, first fail %s=%g (%d runs)\n",
			r.Axis, r.LastPass, r.Axis, r.FirstFail, r.Runs)
	case r.HaveFail:
		fmt.Fprintf(w, "boundary: fails already at %s=%g, below the searched range (%d runs)\n",
			r.Axis, r.FirstFail, r.Runs)
	default:
		fmt.Fprintf(w, "boundary: no failure up to %s=%g (%d runs)\n", r.Axis, r.LastPass, r.Runs)
	}
	if r.Shrunk != nil {
		fmt.Fprintf(w, "shrunk: %d action(s) dropped, %d node(s) removed, %.0fs of windows cut (%d probes)\n",
			r.Shrunk.DroppedActions, r.Shrunk.ShrunkNodes, r.Shrunk.ShortenedSec, r.Shrunk.Probes)
		fmt.Fprintf(w, "minimal failing scenario:\n")
		enc := json.NewEncoder(w)
		enc.SetIndent("  ", "  ")
		fmt.Fprint(w, "  ")
		if err := enc.Encode(r.Shrunk.Spec); err != nil {
			return err
		}
	}
	return nil
}
