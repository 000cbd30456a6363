package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"stabl/internal/core"
	"stabl/internal/scenario"
	"stabl/internal/search"
)

// Bisection is one family's boundary search in mode "bisect": the axis
// value at which the cell stops passing (loses liveness, or reaches the
// spec's threshold). Each probe is also a cell of the campaign's Cells.
type Bisection struct {
	// Cell is the searched coordinate; its axis field is zero.
	Cell Cell `json:"cell"`
	search.Boundary
	// Shrunk is the minimal failing scenario at FirstFail (Bisect.Shrink).
	Shrunk *search.ShrinkResult `json:"shrunk,omitempty"`
	// Runs counts the simulations the search scored: its baseline, every
	// probe and every shrink candidate.
	Runs int `json:"runs"`
	// Error is set when a probe could not be measured; the search stopped
	// there.
	Error string `json:"error,omitempty"`
}

// templates collapses the axis dimension of the expanded cells: one
// coordinate per bisection, in grid order.
func (b *Bisect) templates(cells []Cell) []Cell {
	var out []Cell
	seen := make(map[Cell]bool)
	for _, c := range cells {
		t := b.at(c, 0)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// bisectAll runs one bisection per template on the worker pool. Probes are
// created one at a time, each a forked continuation of the template's family
// checkpoint; the cells land in the result in template order, each
// bisection's in probe order.
func (e *engine) bisectAll(cells []Cell) *Result {
	templates := e.spec.Bisect.templates(cells)
	found := make([]*Bisection, len(templates))
	probes := make([][]*CellResult, len(templates))
	errs := e.execute(len(templates), func(f *family, u int) {
		found[u] = f.bisect(templates[u])
		probes[u] = f.results
	})
	var results []*CellResult
	for u, t := range templates {
		results = append(results, probes[u]...)
		if found[u] == nil {
			// Skipped on cancellation, or its bookkeeping panicked.
			found[u] = &Bisection{Cell: t, Boundary: search.Boundary{Axis: e.spec.Bisect.Axis}, Error: errs[u].Error()}
		}
	}
	res := aggregate(e.spec, results)
	res.Checkpoint = &e.stats
	res.Bisections = found
	return res
}

// bisect searches the template's boundary along the spec's axis, then
// shrinks the scenario at the first failing intensity when asked to.
func (f *family) bisect(template Cell) *Bisection {
	b := f.spec.Bisect
	out := &Bisection{Cell: template}
	axis := search.Axis{Name: b.Axis, Lo: b.Lo, Hi: b.Hi, Integer: b.Axis == AxisCount, Resolution: b.Resolution}
	bound, err := search.Bisect(axis, func(x float64) (bool, error) {
		if err := f.ctx.Err(); err != nil {
			return false, err
		}
		res := f.measure(b.at(template, x), true)
		if res.Error != "" {
			return false, errors.New(res.Error)
		}
		return b.fails(res.Score, res.Infinite), nil
	})
	out.Boundary = *bound
	out.Runs = 1 + len(bound.Probes)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	if b.Shrink && bound.HaveFail {
		if out.Shrunk, err = f.shrink(b.at(template, bound.FirstFail)); err != nil {
			out.Error = err.Error()
			return out
		}
		out.Runs += out.Shrunk.Probes
	}
	return out
}

// shrink minimizes the failing scenario cell, each candidate a full replay
// scored against the family's baseline.
func (f *family) shrink(cell Cell) (*search.ShrinkResult, error) {
	cfg, err := cellConfig(f.spec, cell, f.opts.Resolve)
	if err != nil {
		return nil, err
	}
	sc, _ := f.spec.scenarioByName(cell.Scenario) // cellConfig found it
	d := cfg.Deployment()
	return search.Shrink(sc.Scaled(cell.Intensity), d.Validators-d.Clients, func(cand scenario.Spec) (fail bool, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()
		run := cfg
		if run.Scenario, err = cand.Build(); err != nil {
			return false, err
		}
		cmp, err := core.CompareWithBaseline(run, f.baseline)
		if err != nil {
			return false, err
		}
		return f.spec.Bisect.fails(cmp.Score.Value, cmp.Score.Infinite), nil
	})
}

// writeText renders the search: every probe with its score (from the
// campaign's cells) and verdict, the boundary, and the shrunk scenario.
func (b *Bisection) writeText(w io.Writer, cells map[Cell]*CellResult) error {
	env := b.Cell.Fault
	if b.Cell.Scenario != "" {
		env = "scenario " + b.Cell.Scenario
	}
	fmt.Fprintf(w, "\nsearch: %s seed=%d (%s, axis %s)\n", b.Cell.System, b.Cell.Seed, env, b.Axis)
	at := Bisect{Axis: b.Axis}
	for _, p := range b.Probes {
		verdict, score := "pass", "inf"
		if p.Fail {
			verdict = "FAIL"
		}
		if c := cells[at.at(b.Cell, p.X)]; !c.Infinite {
			score = fmt.Sprintf("%.4f", c.Score)
		}
		fmt.Fprintf(w, "  probe %s=%-8g score=%-8s %s\n", b.Axis, p.X, score, verdict)
	}
	verdict := fmt.Sprintf("last pass %s=%g, first fail %s=%g", b.Axis, b.LastPass, b.Axis, b.FirstFail)
	switch {
	case b.Error != "":
		verdict = "search stopped: " + b.Error
	case !b.HavePass:
		verdict = fmt.Sprintf("fails already at %s=%g, below the searched range", b.Axis, b.FirstFail)
	case !b.HaveFail:
		verdict = fmt.Sprintf("no failure up to %s=%g", b.Axis, b.LastPass)
	}
	fmt.Fprintf(w, "boundary: %s (%d runs)\n", verdict, b.Runs)
	if s := b.Shrunk; s != nil {
		fmt.Fprintf(w, "shrunk: %d action(s) dropped, %d node(s) removed, %.0fs of windows cut (%d probes)\n",
			s.DroppedActions, s.ShrunkNodes, s.ShortenedSec, s.Probes)
		fmt.Fprintf(w, "minimal failing scenario:\n  ")
		enc := json.NewEncoder(w)
		enc.SetIndent("  ", "  ")
		return enc.Encode(s.Spec)
	}
	return nil
}
