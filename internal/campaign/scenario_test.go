package campaign

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/scenario"
)

// scenarioSpec is a small scenario sweep over the stub chain:
// 2 scenarios x 2 intensities x 2 seeds = 8 cells.
func scenarioSpec() Spec {
	return Spec{
		Systems: []string{"Stub"},
		Faults:  []string{},
		Scenarios: []scenario.Spec{
			{Name: "blip", Actions: []scenario.ActionSpec{
				{Op: "crash", AtSec: 15, Nodes: "random(1)", UntilSec: 25},
			}},
			{Name: "drizzle", Actions: []scenario.ActionSpec{
				{Op: "loss", AtSec: 10, Nodes: "all", Rate: 0.02, UntilSec: 30},
			}},
		},
		Intensities: []float64{1, 2},
		Seeds:       []int64{1, 2},
		Base:        core.Spec{DurationSec: 45},
	}
}

func TestScenarioCampaignDeterministicAcrossWorkers(t *testing.T) {
	encode := func(workers int) []byte {
		t.Helper()
		res, err := Run(context.Background(), scenarioSpec(), Options{Workers: workers, Resolve: resolveStubs})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sequential := encode(1)
	parallel := encode(8)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("workers=8 JSON diverged from workers=1:\n%s\nvs\n%s", parallel, sequential)
	}
	if !bytes.Contains(sequential, []byte(`"scenario"`)) {
		t.Fatal("cells carry no scenario axis")
	}
}

func TestScenarioCampaignExpandsAndAggregates(t *testing.T) {
	res, err := Run(context.Background(), scenarioSpec(), Options{Workers: 4, Resolve: resolveStubs})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCells != 8 || res.FailedCells != 0 {
		t.Fatalf("cells = %d (failed %d), want 8 clean", res.TotalCells, res.FailedCells)
	}
	scen := map[string]int{}
	for _, c := range res.Cells {
		if c.Fault != "" {
			t.Fatalf("scenario cell carries a fault: %+v", c.Cell)
		}
		scen[c.Scenario]++
		if c.Intensity != 1 && c.Intensity != 2 {
			t.Fatalf("cell intensity = %g", c.Intensity)
		}
		if !strings.Contains(c.Cell.Key(), "scenario:"+c.Scenario) {
			t.Fatalf("cell key %q missing scenario", c.Cell.Key())
		}
		if !strings.Contains(c.Cell.Slug(), "scenario-"+c.Scenario) {
			t.Fatalf("cell slug %q missing scenario", c.Cell.Slug())
		}
	}
	if scen["blip"] != 4 || scen["drizzle"] != 4 {
		t.Fatalf("per-scenario cells = %v", scen)
	}
	// 2 scenarios x 2 intensities = 4 coordinates, each over 2 seeds.
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Scenario == "" || p.Runs != 2 {
			t.Fatalf("point = %+v", p)
		}
	}
	var surfaces []string
	for _, surf := range res.System("Stub").Surfaces {
		surfaces = append(surfaces, surf.Dimension)
	}
	joined := strings.Join(surfaces, ",")
	if !strings.Contains(joined, "scenario") || !strings.Contains(joined, "intensity") {
		t.Fatalf("surfaces = %v, want scenario and intensity dimensions", surfaces)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scenario") {
		t.Fatalf("text summary never mentions scenarios:\n%s", buf.String())
	}
}

func TestScenarioCampaignValidation(t *testing.T) {
	bad := scenarioSpec()
	bad.Scenarios[1].Name = "blip" // duplicate
	if _, err := Run(context.Background(), bad, Options{Resolve: resolveStubs}); err == nil {
		t.Fatal("duplicate scenario names accepted")
	}
	neg := scenarioSpec()
	neg.Intensities = []float64{-1}
	if _, err := Run(context.Background(), neg, Options{Resolve: resolveStubs}); err == nil {
		t.Fatal("negative intensity accepted")
	}
	invalid := scenarioSpec()
	invalid.Scenarios[0].Actions[0].Op = "melt"
	if _, err := Run(context.Background(), invalid, Options{Resolve: resolveStubs}); err == nil {
		t.Fatal("invalid scenario action accepted")
	}
	// Validate (the CLI's spec linter) accepts the good spec and counts cells.
	n, err := Validate(scenarioSpec(), resolveStubs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("Validate counted %d cells, want 8", n)
	}
	// A scenario whose nodes exceed the base deployment must fail Validate,
	// not the runtime.
	oob := scenarioSpec()
	oob.Scenarios[0].Actions[0].Nodes = "42"
	if _, err := Validate(oob, resolveStubs); err == nil {
		t.Fatal("out-of-range scenario node passed Validate")
	}
}

// TestValidateCompilesAgainstCoresDeployment: with aggregated flows Clients
// counts modeled clients and may exceed Validators. Validate compiles the
// scenarios against the layout core deploys (Config.Deployment), so a spec
// `stabl campaign` runs passes lint, and a node set one past core's
// fault-eligible pool fails it.
func TestValidateCompilesAgainstCoresDeployment(t *testing.T) {
	spec := Spec{
		Systems: []string{"Stub"},
		Faults:  []string{},
		Scenarios: []scenario.Spec{{Name: "w", Actions: []scenario.ActionSpec{
			{Op: "crash", AtSec: 40, Nodes: "random(1)", UntilSec: 60},
		}}},
		Seeds: []int64{1},
		Base:  core.Spec{Validators: 20, Clients: 100, Flows: 4, DurationSec: 80},
	}
	if _, err := Validate(spec, resolveStubs); err != nil {
		t.Fatalf("flows spec refused: %v", err)
	}
	cfg, err := spec.Base.Config(func(string) (chain.System, error) { return resolveStubs("Stub") })
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Deployment()
	pool := d.Validators - d.Clients
	for _, k := range []int{pool, pool + 1} {
		spec.Scenarios[0].Actions[0].Nodes = fmt.Sprintf("random(%d)", k)
		if _, err := Validate(spec, resolveStubs); (err == nil) != (k == pool) {
			t.Fatalf("random(%d) of a %d-node pool: Validate error %v", k, pool, err)
		}
	}
}

// TestScenarioCampaignMixesWithFaults checks a spec sweeping both classic
// faults and scenarios produces the union of both grids.
func TestScenarioCampaignMixesWithFaults(t *testing.T) {
	spec := scenarioSpec()
	spec.Faults = []string{"crash"}
	spec.InjectSecs = []float64{15}
	spec.OutageSecs = []float64{10}
	spec.CountDeltas = []int{0}
	res, err := Run(context.Background(), spec, Options{Workers: 4, Resolve: resolveStubs})
	if err != nil {
		t.Fatal(err)
	}
	// crash: 1 count x 1 inject x 2 seeds = 2; scenarios: 2 x 2 x 2 = 8.
	if res.TotalCells != 10 {
		t.Fatalf("cells = %d, want 10", res.TotalCells)
	}
	var faultCells, scenCells int
	for _, c := range res.Cells {
		switch {
		case c.Fault != "" && c.Scenario == "":
			faultCells++
		case c.Scenario != "" && c.Fault == "":
			scenCells++
		default:
			t.Fatalf("cell is neither fault nor scenario: %+v", c.Cell)
		}
	}
	if faultCells != 2 || scenCells != 8 {
		t.Fatalf("fault/scenario cells = %d/%d, want 2/8", faultCells, scenCells)
	}
}
