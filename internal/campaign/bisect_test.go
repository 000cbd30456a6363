package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/redbelly"
	"stabl/internal/scenario"
	"stabl/internal/search"
)

// resolveRedbelly adds the Redbelly model to the stubs.
func resolveRedbelly(name string) (chain.System, error) {
	if name == "Redbelly" {
		return redbelly.Default(), nil
	}
	return resolveStubs(name)
}

// redbellyBisectSpecs are the two family shapes mode bisect serves: a crash
// family bisected on the fault count, and a scenario family on intensity.
func redbellyBisectSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	base := core.Spec{DurationSec: 60}
	wan, err := scenario.Builtin("lossy-wan", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Spec{
		"count": {
			Systems: []string{"Redbelly"}, Faults: []string{"crash"}, InjectSecs: []float64{20},
			Seeds: []int64{1}, Base: base, Mode: ModeBisect,
			Bisect: &Bisect{Axis: AxisCount, Lo: 1, Hi: 5},
		},
		"intensity": {
			Systems: []string{"Redbelly"}, Scenarios: []scenario.Spec{wan},
			Seeds: []int64{1}, Base: base, Mode: ModeBisect,
			// No intensity costs Redbelly liveness here; its scores run from
			// 18.5 at x0.25 to 87.3 at x4, so the threshold brackets one.
			Bisect: &Bisect{Axis: AxisIntensity, Lo: 0.25, Hi: 4, Resolution: 0.5, Threshold: 50},
		},
	}
}

// TestBisectProbesEqualGridCells holds mode bisect to the two engines it
// replaces: every probe, a forked continuation of the family checkpoint, is
// byte-identical (JSON) to the grid cell at its coordinate, and the boundary
// is the one search.Bisect finds over full from-scratch comparisons.
func TestBisectProbesEqualGridCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two dozen 60 s Redbelly experiments")
	}
	for name, spec := range redbellyBisectSpecs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := Run(context.Background(), spec, Options{Workers: 1, Resolve: resolveRedbelly})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Bisections) != 1 || res.Bisections[0].Error != "" {
				t.Fatalf("bisections = %+v", res.Bisections)
			}
			got := res.Bisections[0]
			if len(res.Cells) != len(got.Probes) || len(got.Probes) < 3 {
				t.Fatalf("%d cells for %d probes", len(res.Cells), len(got.Probes))
			}
			if cp := res.Checkpoint; cp.Families != 1 || cp.ForkServed != len(got.Probes)-1 || cp.FullReplays != 1 {
				t.Fatalf("checkpoint stats = %+v, want every probe after the first fork-served", cp)
			}

			grid := spec
			grid.Mode, grid.Bisect = ModeGrid, nil
			for _, cell := range res.Cells {
				if name == "count" {
					grid.CountDeltas = append(grid.CountDeltas, cell.Count-3) // Redbelly's t at n = 10
				} else {
					grid.Intensities = append(grid.Intensities, cell.Intensity)
				}
			}
			replayed, err := Run(context.Background(), grid, Options{Workers: 2, Resolve: resolveRedbelly})
			if err != nil {
				t.Fatal(err)
			}
			byCell := make(map[Cell]*CellResult)
			for _, c := range replayed.Cells {
				byCell[c.Cell] = c
			}
			for _, probe := range res.Cells {
				want, ok := byCell[probe.Cell]
				if !ok {
					t.Fatalf("grid has no cell %s", probe.Cell)
				}
				if a, b := mustJSON(t, probe), mustJSON(t, want); a != b {
					t.Fatalf("forked probe diverged from the grid cell:\n%s\nvs\n%s", a, b)
				}
			}

			// The same search over full replays: one baseline, every probe a
			// from-scratch comparison against it.
			b := spec.Bisect
			cellAt := func(x float64) Cell { return b.at(got.Cell, x) }
			cfg, err := cellConfig(spec.withDefaults(), cellAt(b.Lo), resolveRedbelly)
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := core.Run(core.BaselineConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			want, err := search.Bisect(search.Axis{Name: b.Axis, Lo: b.Lo, Hi: b.Hi, Integer: b.Axis == AxisCount, Resolution: b.Resolution},
				func(x float64) (bool, error) {
					cfg, err := cellConfig(spec.withDefaults(), cellAt(x), resolveRedbelly)
					if err != nil {
						return false, err
					}
					cmp, err := core.CompareWithBaseline(cfg, baseline)
					if err != nil {
						return false, err
					}
					return b.fails(cmp.Score.Value, cmp.Score.Infinite), nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if got.HavePass != want.HavePass || got.HaveFail != want.HaveFail ||
				got.LastPass != want.LastPass || got.FirstFail != want.FirstFail {
				t.Fatalf("boundary %+v, full replays bracket %+v", got, want)
			}
			for i, p := range want.Probes {
				if got.Probes[i].X != p.X || got.Probes[i].Fail != p.Fail {
					t.Fatalf("probe %d = %+v, full replays probed %+v", i, got.Probes[i], p)
				}
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBisectShrinksAndCountsRuns: with shrink on, the failing scenario at
// the boundary is minimized by full replays, and the search's run count is
// its baseline, its probes and the shrink candidates.
func TestBisectShrinksAndCountsRuns(t *testing.T) {
	spec := Spec{
		Systems: []string{"Stub"},
		Scenarios: []scenario.Spec{{Name: "storm", Actions: []scenario.ActionSpec{
			{Op: "crash", AtSec: 15, Nodes: "random(2)", UntilSec: 25},
			{Op: "loss", AtSec: 10, Nodes: "all", Rate: 0.02, UntilSec: 30},
		}}},
		Seeds: []int64{1}, Base: core.Spec{DurationSec: 45}, Mode: ModeBisect,
		Bisect: &Bisect{Axis: AxisIntensity, Lo: 1, Hi: 2, Threshold: 1e-9, Shrink: true},
	}
	res, err := Run(context.Background(), spec, Options{Resolve: resolveStubs})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Bisections[0]
	if b.Error != "" || !b.HaveFail || b.FirstFail != 1 || b.Shrunk == nil {
		t.Fatalf("bisection = %+v", b)
	}
	if b.Runs != 1+len(b.Probes)+b.Shrunk.Probes {
		t.Fatalf("runs = %d, want 1 + %d probes + %d shrink candidates", b.Runs, len(b.Probes), b.Shrunk.Probes)
	}
	if len(b.Shrunk.Spec.Actions) >= len(spec.Scenarios[0].Actions) && b.Shrunk.ShrunkNodes == 0 && b.Shrunk.ShortenedSec == 0 {
		t.Fatalf("nothing shrunk: %+v", b.Shrunk)
	}
	var text strings.Builder
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"search: Stub seed=1 (scenario storm, axis intensity)", "boundary: fails already at intensity=1", "minimal failing scenario:"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, text.String())
		}
	}
}

// TestBisectSpecValidation: the bisect block fits only mode bisect, and each
// axis only the fault or scenario it sweeps.
func TestBisectSpecValidation(t *testing.T) {
	count := &Bisect{Axis: AxisCount, Lo: 1, Hi: 5}
	for name, spec := range map[string]Spec{
		"block without mode":     {Bisect: count},
		"mode without block":     {Mode: ModeBisect},
		"unknown axis":           {Mode: ModeBisect, Bisect: &Bisect{Axis: "voltage", Lo: 1, Hi: 2}},
		"count over nodeless":    {Mode: ModeBisect, Bisect: count, Faults: []string{"secure-client"}},
		"slowby over crash":      {Mode: ModeBisect, Bisect: &Bisect{Axis: AxisSlowBy, Lo: 1, Hi: 2}, Faults: []string{"crash"}},
		"intensity, no scenario": {Mode: ModeBisect, Bisect: &Bisect{Axis: AxisIntensity, Lo: 1, Hi: 2}},
		"empty range":            {Mode: ModeBisect, Bisect: &Bisect{Axis: AxisCount, Lo: 3, Hi: 3}},
		"shrink off intensity":   {Mode: ModeBisect, Bisect: &Bisect{Axis: AxisCount, Lo: 1, Hi: 5, Shrink: true}},
	} {
		spec.Systems = []string{"Stub"}
		if _, err := Validate(spec, resolveStubs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	spec := fastSpec()
	spec.Mode, spec.Bisect = ModeBisect, count
	// 2 faults x 2 seeds; the count dimension collapses into the search.
	if n, err := Validate(spec, resolveStubs); err != nil || n != 4 {
		t.Fatalf("Validate = %d, %v; want 4 bisections", n, err)
	}
	// At t = 0 the default count delta resolves to f = 0, which a grid
	// drops, but the search sets the count itself.
	spec.Base.Validators, spec.Base.Clients, spec.CountDeltas = 3, 1, nil
	if n, err := Validate(spec, resolveStubs); err != nil || n != 4 {
		t.Fatalf("Validate at t = 0 = %d, %v; want 4 bisections", n, err)
	}
}

// TestPaperSuiteMatchesCompare holds the suite preset to what the suite
// measured: each (fault, seed) cell's score, recovery flag and recovery time
// equal core.Compare's at Fault.Count 0, the paper's count. The secure-client
// cell runs with InjectSec 0 where Compare is given the suite's 20 s, which
// must not matter: no node is touched.
func TestPaperSuiteMatchesCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen 60 s Redbelly experiments")
	}
	spec := Spec{Systems: []string{"Redbelly"}, InjectSecs: []float64{20}, OutageSecs: []float64{20},
		Seeds: []int64{1, 2}, Base: core.Spec{DurationSec: 60}}
	res, err := RunPaperSuite(context.Background(), spec, Options{Workers: 2, Resolve: resolveRedbelly})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("%d cells, want 4 faults x 2 seeds", len(res.Cells))
	}
	for _, cell := range res.Cells {
		kind, err := core.ParseFaultKind(cell.Fault)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := core.Compare(core.Config{System: redbelly.Default(), Seed: cell.Seed, Duration: 60 * time.Second,
			Fault: core.FaultPlan{Kind: kind, InjectAt: 20 * time.Second, RecoverAt: 40 * time.Second}})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v %v %v %v", cell.Score, cell.Infinite, cell.Recovered, cell.RecoverySec)
		want := fmt.Sprintf("%v %v %v %v", cmp.Score.Value, cmp.Score.Infinite, cmp.Recovered, cmp.RecoveryTime.Seconds())
		if got != want {
			t.Errorf("%s: suite preset %s, Compare %s", cell.Cell, got, want)
		}
	}
	if crash := res.Cells[0]; crash.Fault != "crash" || crash.Count != 3 {
		t.Fatalf("first cell %s, want crash at f = t = 3", crash.Cell)
	}
	if transient := res.Cells[2]; transient.Count != 4 {
		t.Fatalf("transient cell %s, want f = t+1 = 4", transient.Cell)
	}
	if sc := res.Cells[6]; sc.Fault != "secure-client" || sc.InjectSec != 0 || math.IsNaN(sc.Score) {
		t.Fatalf("secure-client cell %s", sc.Cell)
	}
}
