package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// CellResult is the outcome of one executed cell.
type CellResult struct {
	Cell
	// Error is set when the cell failed to execute — an invalid config
	// for this coordinate or a panicking model run. All measurement
	// fields are zero then.
	Error string `json:"error,omitempty"`
	// Score is the sensitivity score against the shared baseline;
	// Infinite when the altered run lost liveness.
	Score    float64 `json:"score"`
	Infinite bool    `json:"infinite,omitempty"`
	// Benefit marks cells where the altered environment outperformed the
	// baseline.
	Benefit bool `json:"benefit,omitempty"`
	// Recovered / RecoverySec: throughput returned to the baseline
	// steady rate after healing (recovering faults only).
	Recovered   bool    `json:"recovered,omitempty"`
	RecoverySec float64 `json:"recoverySec,omitempty"`
	// Stabilized / StabilizationSec: like recovery but measured from the
	// injection instant, so it also grades faults that never heal.
	Stabilized       bool    `json:"stabilized,omitempty"`
	StabilizationSec float64 `json:"stabilizationSec,omitempty"`
}

// String renders one cell outcome as a summary line.
func (r *CellResult) String() string {
	switch {
	case r.Error != "":
		return fmt.Sprintf("%-44s FAILED (%s)", r.Cell, r.Error)
	case r.Infinite:
		return fmt.Sprintf("%-44s score=inf (liveness lost)", r.Cell)
	default:
		return fmt.Sprintf("%-44s score=%.2f", r.Cell, r.Score)
	}
}

// Point aggregates one fault-space coordinate across its seeds.
type Point struct {
	System    string  `json:"system"`
	Fault     string  `json:"fault,omitempty"`
	Count     int     `json:"count,omitempty"`
	InjectSec float64 `json:"injectSec,omitempty"`
	OutageSec float64 `json:"outageSec,omitempty"`
	SlowBySec float64 `json:"slowBySec,omitempty"`
	Scenario  string  `json:"scenario,omitempty"`
	Intensity float64 `json:"intensity,omitempty"`
	// CommitteeSize and Overlay carry the scale and overlay axes; without
	// them the point's coordinate is ambiguous whenever either axis is
	// active, and the seed-grouping lookup would collapse distinct cells.
	CommitteeSize int    `json:"committeeSize,omitempty"`
	Overlay       string `json:"overlay,omitempty"`

	Runs         int `json:"runs"`
	FailedRuns   int `json:"failedRuns,omitempty"`
	InfiniteRuns int `json:"infiniteRuns,omitempty"`
	BenefitRuns  int `json:"benefitRuns,omitempty"`
	// Min/Median/MaxScore summarize the finite scores across seeds.
	MinScore    float64 `json:"minScore"`
	MedianScore float64 `json:"medianScore"`
	MaxScore    float64 `json:"maxScore"`
	// MeanRecoverySec averages the seeds that recovered;
	// MeanStabilizationSec the seeds that stabilized after injection.
	MeanRecoverySec      float64 `json:"meanRecoverySec,omitempty"`
	MeanStabilizationSec float64 `json:"meanStabilizationSec,omitempty"`
}

// severity orders points from least to most resilient: cells whose runs
// panicked or lost liveness dominate, then the finite scores decide.
func (p *Point) severity() float64 {
	if p.Runs == 0 {
		return 0
	}
	lost := float64(p.FailedRuns+p.InfiniteRuns) / float64(p.Runs)
	return lost*1e9 + p.MedianScore
}

// cellKey reconstructs the full cell coordinate the point aggregates. It
// must round-trip every Cell field except the seed: aggregatePoints keys its
// seed groups by Cell.Key(), so a field missing here silently merges cells
// that differ only in that field.
func (p *Point) cellKey() string {
	return Cell{System: p.System, Fault: p.Fault, Count: p.Count,
		InjectSec: p.InjectSec, OutageSec: p.OutageSec, SlowBySec: p.SlowBySec,
		Scenario: p.Scenario, Intensity: p.Intensity,
		CommitteeSize: p.CommitteeSize, Overlay: p.Overlay}.Key()
}

// String renders one aggregated coordinate.
func (p *Point) String() string {
	key := p.cellKey()
	if p.FailedRuns+p.InfiniteRuns > 0 {
		return fmt.Sprintf("%-44s inf/failed %d of %d runs", key, p.FailedRuns+p.InfiniteRuns, p.Runs)
	}
	return fmt.Sprintf("%-44s score min/med/max %.2f/%.2f/%.2f", key, p.MinScore, p.MedianScore, p.MaxScore)
}

// SurfacePoint is one slice of a sensitivity surface: every run sharing one
// value of one dimension, collapsed.
type SurfacePoint struct {
	Label        string  `json:"label"`
	Runs         int     `json:"runs"`
	FailedRuns   int     `json:"failedRuns,omitempty"`
	InfiniteRuns int     `json:"infiniteRuns,omitempty"`
	MeanScore    float64 `json:"meanScore"`
	MaxScore     float64 `json:"maxScore"`
}

// Surface is one system's sensitivity marginal along one spec dimension.
type Surface struct {
	// Dimension is "fault", "scenario", "intensity", "count",
	// "injectSec", "outageSec", "slowBySec" or "committeeSize".
	Dimension string         `json:"dimension"`
	Points    []SurfacePoint `json:"points"`
}

// SystemSummary aggregates one system across the whole campaign.
type SystemSummary struct {
	System       string `json:"system"`
	Runs         int    `json:"runs"`
	FailedRuns   int    `json:"failedRuns,omitempty"`
	InfiniteRuns int    `json:"infiniteRuns,omitempty"`
	BenefitRuns  int    `json:"benefitRuns,omitempty"`
	// MeanScore averages the finite scores over every run.
	MeanScore float64 `json:"meanScore"`
	// Surfaces are the per-dimension sensitivity marginals.
	Surfaces []Surface `json:"surfaces"`
	// MostSensitive ranks the system's fault-space coordinates from
	// least to most resilient (worst first, at most five).
	MostSensitive []*Point `json:"mostSensitive"`
}

// Result is the complete campaign outcome. Everything in it is derived
// deterministically from the cell results in grid order, so two runs of the
// same spec produce byte-identical JSON at any worker count.
type Result struct {
	TotalCells    int `json:"totalCells"`
	FailedCells   int `json:"failedCells"`
	InfiniteCells int `json:"infiniteCells"`
	BenefitCells  int `json:"benefitCells"`
	// Systems are the per-system aggregations, in spec order.
	Systems []*SystemSummary `json:"systems"`
	// Points aggregate each coordinate across seeds, in grid order.
	Points []*Point `json:"points"`
	// Cells are the raw per-cell outcomes, in grid order.
	Cells []*CellResult `json:"cells"`
	// Checkpoint reports the adaptive and bisect modes' fork reuse; nil in
	// grid mode.
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`
	// Bisections are mode bisect's boundary searches, in grid order.
	Bisections []*Bisection `json:"bisections,omitempty"`
}

// CheckpointStats summarizes checkpoint reuse in an adaptive campaign. The
// counts are deterministic (a function of the spec alone, not of timing or
// worker count) and therefore part of the JSON artifact; the measured
// wall-clock saving is not, and stays out of the JSON.
type CheckpointStats struct {
	// Families is how many checkpointable prefix groups the grid held.
	Families int `json:"families"`
	// ForkServed counts cells served by rewinding a family checkpoint.
	ForkServed int `json:"forkServed"`
	// FullReplays counts cells executed from scratch: one representative
	// per family, plus every cell that was ineligible (secure-client,
	// singleton families) or fell back after a sibling's panic.
	FullReplays int `json:"fullReplays"`
	// WallSaved estimates the wall-clock time forking avoided: the sum,
	// over every fork-served cell, of its family's measured prefix time.
	// Timing is nondeterministic, so it is excluded from the JSON.
	WallSaved time.Duration `json:"-"`
}

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// System returns the summary for the named system, or nil.
func (r *Result) System(name string) *SystemSummary {
	for _, s := range r.Systems {
		if s.System == name {
			return s
		}
	}
	return nil
}

// WriteText renders the human-readable campaign summary: totals, then each
// system's ranking and surfaces.
func (r *Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "campaign: %d cells (%d failed, %d lost liveness, %d benefited)\n",
		r.TotalCells, r.FailedCells, r.InfiniteCells, r.BenefitCells); err != nil {
		return err
	}
	if cp := r.Checkpoint; cp != nil {
		fmt.Fprintf(w, "checkpoint reuse: %d of %d cells served from %d family fork(s), %d full replay(s)\n",
			cp.ForkServed, r.TotalCells, cp.Families, cp.FullReplays)
	}
	cells := make(map[Cell]*CellResult, len(r.Cells))
	for _, c := range r.Cells {
		cells[c.Cell] = c
	}
	for _, b := range r.Bisections {
		if err := b.writeText(w, cells); err != nil {
			return err
		}
	}
	for _, sys := range r.Systems {
		fmt.Fprintf(w, "\n%s: mean score %.2f over %d runs (inf %d, failed %d)\n",
			sys.System, sys.MeanScore, sys.Runs, sys.InfiniteRuns, sys.FailedRuns)
		fmt.Fprintln(w, "  most sensitive:")
		for _, p := range sys.MostSensitive {
			fmt.Fprintf(w, "    %s\n", p)
		}
		for _, surf := range sys.Surfaces {
			if len(surf.Points) < 2 {
				continue
			}
			var b strings.Builder
			for i, sp := range surf.Points {
				if i > 0 {
					b.WriteString(", ")
				}
				if sp.FailedRuns+sp.InfiniteRuns > 0 {
					fmt.Fprintf(&b, "%s: inf %d/%d", sp.Label, sp.FailedRuns+sp.InfiniteRuns, sp.Runs)
				} else {
					fmt.Fprintf(&b, "%s: %.2f", sp.Label, sp.MeanScore)
				}
			}
			fmt.Fprintf(w, "  by %s: %s\n", surf.Dimension, b.String())
		}
	}
	return nil
}

// rankedLimit bounds each system's MostSensitive list.
const rankedLimit = 5

// aggregate folds the per-cell outcomes into points, surfaces and system
// summaries. It iterates the cells in their deterministic grid order and
// uses only order-stable containers, keeping the JSON byte-identical across
// worker counts.
func aggregate(spec Spec, cells []*CellResult) *Result {
	res := &Result{TotalCells: len(cells), Cells: cells}
	for _, c := range cells {
		switch {
		case c.Error != "":
			res.FailedCells++
		case c.Infinite:
			res.InfiniteCells++
		}
		if c.Benefit {
			res.BenefitCells++
		}
	}
	res.Points = aggregatePoints(cells)
	for _, name := range spec.Systems {
		res.Systems = append(res.Systems, summarizeSystem(name, cells, res.Points))
	}
	return res
}

// aggregatePoints groups the cells by coordinate (seeds collapsed),
// preserving grid order.
func aggregatePoints(cells []*CellResult) []*Point {
	index := make(map[string]*Point)
	var points []*Point
	grouped := make(map[string][]*CellResult)
	for _, c := range cells {
		key := c.Key()
		p := index[key]
		if p == nil {
			p = &Point{System: c.System, Fault: c.Fault, Count: c.Count,
				InjectSec: c.InjectSec, OutageSec: c.OutageSec, SlowBySec: c.SlowBySec,
				Scenario: c.Scenario, Intensity: c.Intensity,
				CommitteeSize: c.CommitteeSize, Overlay: c.Overlay}
			index[key] = p
			points = append(points, p)
		}
		grouped[key] = append(grouped[key], c)
	}
	for _, p := range points {
		fill(p, grouped[p.cellKey()])
	}
	return points
}

// fill computes one point's cross-seed statistics.
func fill(p *Point, runs []*CellResult) {
	var scores []float64
	var recoverySum, stabilizationSum float64
	recovered, stabilized := 0, 0
	for _, c := range runs {
		p.Runs++
		switch {
		case c.Error != "":
			p.FailedRuns++
		case c.Infinite:
			p.InfiniteRuns++
		default:
			scores = append(scores, c.Score)
		}
		if c.Benefit {
			p.BenefitRuns++
		}
		if c.Recovered {
			recovered++
			recoverySum += c.RecoverySec
		}
		if c.Stabilized {
			stabilized++
			stabilizationSum += c.StabilizationSec
		}
	}
	if len(scores) > 0 {
		sort.Float64s(scores)
		p.MinScore = scores[0]
		p.MaxScore = scores[len(scores)-1]
		p.MedianScore = median(scores)
	}
	if recovered > 0 {
		p.MeanRecoverySec = recoverySum / float64(recovered)
	}
	if stabilized > 0 {
		p.MeanStabilizationSec = stabilizationSum / float64(stabilized)
	}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// summarizeSystem folds one system's cells into totals, surfaces and the
// most-sensitive ranking.
func summarizeSystem(name string, cells []*CellResult, points []*Point) *SystemSummary {
	sum := &SystemSummary{System: name}
	var scoreSum float64
	finite := 0
	var own []*CellResult
	for _, c := range cells {
		if c.System != name {
			continue
		}
		own = append(own, c)
		sum.Runs++
		switch {
		case c.Error != "":
			sum.FailedRuns++
		case c.Infinite:
			sum.InfiniteRuns++
		default:
			scoreSum += c.Score
			finite++
		}
		if c.Benefit {
			sum.BenefitRuns++
		}
	}
	if finite > 0 {
		sum.MeanScore = scoreSum / float64(finite)
	}

	sum.Surfaces = []Surface{
		surface("fault", own, func(c *CellResult) (string, bool) { return c.Fault, c.Fault != "" }),
		surface("scenario", own, func(c *CellResult) (string, bool) {
			return c.Scenario, c.Scenario != ""
		}),
		surface("intensity", own, func(c *CellResult) (string, bool) {
			return fmt.Sprintf("x%g", c.Intensity), c.Scenario != ""
		}),
		surface("count", own, func(c *CellResult) (string, bool) {
			return fmt.Sprintf("f=%d", c.Count), c.Count > 0
		}),
		surface("injectSec", own, func(c *CellResult) (string, bool) {
			return fmt.Sprintf("inject=%gs", c.InjectSec), c.InjectSec > 0
		}),
		surface("outageSec", own, func(c *CellResult) (string, bool) {
			return fmt.Sprintf("outage=%gs", c.OutageSec), c.OutageSec > 0
		}),
		surface("slowBySec", own, func(c *CellResult) (string, bool) {
			return fmt.Sprintf("slow=%gs", c.SlowBySec), c.SlowBySec > 0
		}),
		surface("committeeSize", own, func(c *CellResult) (string, bool) {
			return fmt.Sprintf("committee=%d", c.CommitteeSize), c.CommitteeSize > 0
		}),
		surface("overlay", own, func(c *CellResult) (string, bool) {
			return fmt.Sprintf("overlay=%s", c.Overlay), c.Overlay != ""
		}),
	}

	var ranked []*Point
	for _, p := range points {
		if p.System == name {
			ranked = append(ranked, p)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].severity() > ranked[j].severity() })
	if len(ranked) > rankedLimit {
		ranked = ranked[:rankedLimit]
	}
	sum.MostSensitive = ranked
	return sum
}

// surface computes one marginal: cells grouped by the label that dim
// extracts, in first-seen (grid) order. Cells for which the dimension is
// inapplicable report ok=false and are left out.
func surface(dimension string, cells []*CellResult, dim func(*CellResult) (string, bool)) Surface {
	surf := Surface{Dimension: dimension}
	index := make(map[string]int)
	counts := make(map[string]int)
	sums := make(map[string]float64)
	for _, c := range cells {
		label, ok := dim(c)
		if !ok {
			continue
		}
		i, seen := index[label]
		if !seen {
			i = len(surf.Points)
			index[label] = i
			surf.Points = append(surf.Points, SurfacePoint{Label: label})
		}
		sp := &surf.Points[i]
		sp.Runs++
		switch {
		case c.Error != "":
			sp.FailedRuns++
		case c.Infinite:
			sp.InfiniteRuns++
		default:
			sums[label] += c.Score
			counts[label]++
			if c.Score > sp.MaxScore {
				sp.MaxScore = c.Score
			}
		}
	}
	for i := range surf.Points {
		label := surf.Points[i].Label
		if counts[label] > 0 {
			surf.Points[i].MeanScore = sums[label] / float64(counts[label])
		}
	}
	return surf
}

// HeatmapGrid projects one system's outcomes onto the (fault kind ×
// inject time) plane for rendering: rows are fault kinds, columns inject
// times, both in grid order. A value is the mean finite score of every run
// at that coordinate, +Inf when any of them lost liveness or failed, NaN
// when the coordinate was never explored (e.g. sampled out).
func (r *Result) HeatmapGrid(system string) (faults []string, injectSecs []float64, values [][]float64) {
	rowIdx := make(map[string]int)
	colIdx := make(map[float64]int)
	for _, c := range r.Cells {
		if c.System != system || c.InjectSec <= 0 {
			continue
		}
		if _, ok := rowIdx[c.Fault]; !ok {
			rowIdx[c.Fault] = len(faults)
			faults = append(faults, c.Fault)
		}
		if _, ok := colIdx[c.InjectSec]; !ok {
			colIdx[c.InjectSec] = len(injectSecs)
			injectSecs = append(injectSecs, c.InjectSec)
		}
	}
	sums := make([][]float64, len(faults))
	counts := make([][]int, len(faults))
	values = make([][]float64, len(faults))
	for i := range values {
		sums[i] = make([]float64, len(injectSecs))
		counts[i] = make([]int, len(injectSecs))
		values[i] = make([]float64, len(injectSecs))
		for j := range values[i] {
			values[i][j] = math.NaN()
		}
	}
	for _, c := range r.Cells {
		if c.System != system || c.InjectSec <= 0 {
			continue
		}
		i, j := rowIdx[c.Fault], colIdx[c.InjectSec]
		if c.Error != "" || c.Infinite {
			values[i][j] = math.Inf(1)
			continue
		}
		sums[i][j] += c.Score
		counts[i][j]++
	}
	for i := range values {
		for j := range values[i] {
			if !math.IsInf(values[i][j], 1) && counts[i][j] > 0 {
				values[i][j] = sums[i][j] / float64(counts[i][j])
			}
		}
	}
	return faults, injectSecs, values
}
