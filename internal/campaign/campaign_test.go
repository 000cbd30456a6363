package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"stabl/internal/core"
)

// fastSpec is a small but multi-dimensional campaign over the stub chain:
// 2 faults x 2 counts x 1 inject x (1|1) outage x 2 seeds = 8 cells.
func fastSpec() Spec {
	return Spec{
		Systems:     []string{"Stub"},
		Faults:      []string{"crash", "transient"},
		CountDeltas: []int{0, 1},
		InjectSecs:  []float64{15},
		OutageSecs:  []float64{10},
		Seeds:       []int64{1, 2},
		Base:        core.Spec{DurationSec: 45},
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	encode := func(workers int) []byte {
		t.Helper()
		res, err := Run(context.Background(), fastSpec(), Options{Workers: workers, Resolve: resolveStubs})
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

	var res Result
	if err := json.Unmarshal(sequential, &res); err != nil {
		t.Fatal(err)
	}
	if res.TotalCells != 8 || len(res.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", res.TotalCells)
	}
	if res.FailedCells != 0 {
		t.Fatalf("failed cells = %d:\n%s", res.FailedCells, sequential)
	}
	sys := res.System("Stub")
	if sys == nil || sys.Runs != 8 {
		t.Fatalf("system summary = %+v", sys)
	}
	if len(sys.MostSensitive) == 0 || len(sys.Surfaces) == 0 {
		t.Fatalf("missing ranking or surfaces: %+v", sys)
	}
	// The stub forwards everything to node 0 and the fault targets the
	// highest ids, so every cell stays finite.
	for _, c := range res.Cells {
		if c.Infinite {
			t.Fatalf("unexpected liveness loss: %+v", c)
		}
	}
}

func TestCampaignProgressAndAggregates(t *testing.T) {
	var calls int
	var last int
	res, err := Run(context.Background(), fastSpec(), Options{
		Workers: 4,
		Resolve: resolveStubs,
		Progress: func(done, total int, cell *CellResult) {
			calls++
			last = done
			if total != 8 || cell == nil {
				t.Errorf("progress(done=%d, total=%d, cell=%v)", done, total, cell)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 || last != 8 {
		t.Fatalf("progress calls = %d, last done = %d", calls, last)
	}
	// 4 coordinates, each over 2 seeds.
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Runs != 2 {
			t.Fatalf("point runs = %+v", p)
		}
		if p.MinScore > p.MedianScore || p.MedianScore > p.MaxScore {
			t.Fatalf("score order violated: %+v", p)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "most sensitive:") || !strings.Contains(buf.String(), "by count:") {
		t.Fatalf("text summary = %q", buf.String())
	}
}

func TestCampaignIsolatesPanickingCells(t *testing.T) {
	spec := Spec{
		Systems:    []string{"Stub", "Panicky"},
		Faults:     []string{"crash"},
		InjectSecs: []float64{15},
		Seeds:      []int64{1},
		Base:       core.Spec{DurationSec: 45},
	}
	res, err := Run(context.Background(), spec, Options{Workers: 4, Resolve: resolveStubs})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCells != 2 || res.FailedCells != 1 {
		t.Fatalf("result = %+v", res)
	}
	for _, c := range res.Cells {
		switch c.System {
		case "Panicky":
			if !strings.Contains(c.Error, "panic") || !strings.Contains(c.Error, "accounts hash mismatch") {
				t.Fatalf("panicky cell error = %q", c.Error)
			}
			if !strings.Contains(c.String(), "FAILED") {
				t.Fatalf("String = %q", c.String())
			}
		case "Stub":
			if c.Error != "" || c.Score <= 0 {
				t.Fatalf("healthy cell = %+v", c)
			}
		}
	}
	panicky := res.System("Panicky")
	if panicky.FailedRuns != 1 {
		t.Fatalf("panicky summary = %+v", panicky)
	}
	// The panicking coordinate must top the ranking.
	if len(panicky.MostSensitive) == 0 || panicky.MostSensitive[0].FailedRuns != 1 {
		t.Fatalf("ranking = %+v", panicky.MostSensitive)
	}
}

func TestCampaignSamplingIsDeterministic(t *testing.T) {
	spec := fastSpec()
	spec.Sample = 3
	spec.SampleSeed = 7
	first, err := Run(context.Background(), spec, Options{Workers: 2, Resolve: resolveStubs})
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalCells != 3 {
		t.Fatalf("sampled cells = %d, want 3", first.TotalCells)
	}
	second, err := Run(context.Background(), spec, Options{Workers: 2, Resolve: resolveStubs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Cells {
		if first.Cells[i].Cell != second.Cells[i].Cell {
			t.Fatalf("sample diverged: %v vs %v", first.Cells[i].Cell, second.Cells[i].Cell)
		}
	}
}

func TestCampaignCancellationReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, fastSpec(), Options{Workers: 2, Resolve: resolveStubs})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedCells != res.TotalCells {
		t.Fatalf("failed = %d of %d, want all", res.FailedCells, res.TotalCells)
	}
	for _, c := range res.Cells {
		if !strings.Contains(c.Error, "context canceled") {
			t.Fatalf("cell error = %q", c.Error)
		}
	}
}

func TestExpandCollapsesInapplicableDimensions(t *testing.T) {
	spec := Spec{
		Systems:     []string{"Stub"},
		Faults:      []string{"crash", "transient", "slow", "secure-client"},
		CountDeltas: []int{-5, -1, 0, 0, 1}, // t=3: dedupes to f=2,3,4; -5 dropped
		InjectSecs:  []float64{20, 40},
		OutageSecs:  []float64{10, 30},
		SlowBySecs:  []float64{5},
		Seeds:       []int64{1},
	}.withDefaults()
	cells, err := expand(spec, resolveStubs, deltaCounts)
	if err != nil {
		t.Fatal(err)
	}
	count := func(fault string) int {
		n := 0
		for _, c := range cells {
			if c.Fault == fault {
				n++
			}
		}
		return n
	}
	// crash: 3 counts x 2 injects, outage and slow collapsed.
	if got := count("crash"); got != 6 {
		t.Fatalf("crash cells = %d, want 6", got)
	}
	// transient: 3 x 2 x 2 outages.
	if got := count("transient"); got != 12 {
		t.Fatalf("transient cells = %d, want 12", got)
	}
	// slow: same as transient, single slow-by.
	if got := count("slow"); got != 12 {
		t.Fatalf("slow cells = %d, want 12", got)
	}
	// secure-client: every node dimension collapses to one cell.
	if got := count("secure-client"); got != 1 {
		t.Fatalf("secure-client cells = %d, want 1", got)
	}
	for _, c := range cells {
		if c.Fault == "crash" && (c.OutageSec != 0 || c.SlowBySec != 0) {
			t.Fatalf("crash cell carries healing dims: %+v", c)
		}
		if c.Fault == "secure-client" && (c.Count != 0 || c.InjectSec != 0) {
			t.Fatalf("secure-client cell carries node dims: %+v", c)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}, Options{Resolve: resolveStubs}); err == nil {
		t.Fatal("empty spec accepted")
	}
	bad := Spec{Systems: []string{"Stub"}, Faults: []string{"meteor-strike"}}
	if _, err := Run(context.Background(), bad, Options{Resolve: resolveStubs}); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
	if _, err := Run(context.Background(), fastSpec(), Options{}); err == nil {
		t.Fatal("nil Resolve accepted")
	}
	unknownSys := fastSpec()
	unknownSys.Systems = []string{"Atlantis"}
	if _, err := Run(context.Background(), unknownSys, Options{Resolve: resolveStubs}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := fastSpec()
	var buf bytes.Buffer
	if err := spec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Systems[0] != "Stub" || len(parsed.Faults) != 2 || parsed.Base.DurationSec != 45 {
		t.Fatalf("round trip = %+v", parsed)
	}
	if _, err := ParseSpec(strings.NewReader(`{"systems": ["Stub"], "warp": 9}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestHeatmapGridMarksInfiniteAndMissing(t *testing.T) {
	res := &Result{Cells: []*CellResult{
		{Cell: Cell{System: "X", Fault: "crash", InjectSec: 10, Seed: 1}, Score: 2},
		{Cell: Cell{System: "X", Fault: "crash", InjectSec: 10, Seed: 2}, Score: 4},
		{Cell: Cell{System: "X", Fault: "slow", InjectSec: 10, Seed: 1}, Infinite: true},
		{Cell: Cell{System: "X", Fault: "slow", InjectSec: 20, Seed: 1}, Error: "panic: boom"},
		{Cell: Cell{System: "Y", Fault: "crash", InjectSec: 10, Seed: 1}, Score: 9},
	}}
	faults, injects, values := res.HeatmapGrid("X")
	if len(faults) != 2 || len(injects) != 2 {
		t.Fatalf("grid = %v x %v", faults, injects)
	}
	if values[0][0] != 3 {
		t.Fatalf("crash@10 = %v, want mean 3", values[0][0])
	}
	if !math.IsNaN(values[0][1]) {
		t.Fatalf("crash@20 = %v, want NaN", values[0][1])
	}
	if !math.IsInf(values[1][0], 1) || !math.IsInf(values[1][1], 1) {
		t.Fatalf("slow row = %v, want inf", values[1])
	}
}

// TestExpandCommitteeAxis checks the scale axis: committeeSizes multiplies
// the grid, lands on every cell, distinguishes keys and slugs, and splits
// checkpoint families — a committee-mode run shares no prefix with a
// full-membership one.
func TestExpandCommitteeAxis(t *testing.T) {
	spec := fastSpec()
	spec.CommitteeSizes = []int{0, 16}
	cells, err := expand(spec.withDefaults(), resolveStubs, deltaCounts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := expand(fastSpec().withDefaults(), resolveStubs, deltaCounts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*len(base) {
		t.Fatalf("committee axis expanded to %d cells, want %d", len(cells), 2*len(base))
	}
	full, comm := cells[0], cells[len(base)]
	if full.CommitteeSize != 0 || comm.CommitteeSize != 16 {
		t.Fatalf("committee dimension not laid out per size block: %+v / %+v", full, comm)
	}
	if full.Key() == comm.Key() || full.Slug() == comm.Slug() {
		t.Fatalf("committee size missing from key or slug: %q / %q", full.Key(), full.Slug())
	}
	fk, ok1 := full.family()
	ck, ok2 := comm.family()
	if !ok1 || !ok2 || fk == ck {
		t.Fatalf("committee size must split checkpoint families: %+v vs %+v", fk, ck)
	}
	// Size 0 must keep the classic coordinates byte-stable.
	if full.Key() != base[0].Key() || full.Slug() != base[0].Slug() {
		t.Fatalf("size-0 cell renamed classic coordinate: %q vs %q", full.Key(), base[0].Key())
	}
}

// TestAggregatePointsKeepsAxisCoordinates is the regression guard for the
// seed-grouping lookup: cells that differ only in an axis field (overlay,
// committee size) must aggregate into distinct points carrying their own
// scores — not all be served the statistics of the axis-less variant.
func TestAggregatePointsKeepsAxisCoordinates(t *testing.T) {
	mk := func(overlay string, committee int, score float64) *CellResult {
		return &CellResult{
			Cell: Cell{System: "Stub", Fault: "crash", Count: 1, InjectSec: 15,
				Overlay: overlay, CommitteeSize: committee, Seed: 1},
			Score: score,
		}
	}
	cells := []*CellResult{
		mk("", 0, 1.0),
		mk("kadcast", 0, 2.0),
		mk("kadcast", 16, 3.0),
		mk("", 16, 4.0),
	}
	points := aggregatePoints(cells)
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4 (one per axis coordinate)", len(points))
	}
	labels := make(map[string]bool)
	for i, p := range points {
		if p.Runs != 1 {
			t.Errorf("point %d (%s): filled with %d runs, want exactly its own cell", i, p, p.Runs)
		}
		if p.MedianScore != cells[i].Score {
			t.Errorf("point %d (overlay=%q committee=%d): score %v, want %v",
				i, p.Overlay, p.CommitteeSize, p.MedianScore, cells[i].Score)
		}
		labels[p.String()] = true
	}
	if len(labels) != 4 {
		t.Fatalf("rendered labels collapsed: %v", labels)
	}
}
