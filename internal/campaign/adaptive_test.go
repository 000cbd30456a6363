package campaign

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"stabl/internal/metrics"
)

// mixedSpec sweeps both classic faults and scenarios, so adaptive mode
// exercises both family shapes: fault families varying the count, scenario
// families varying the intensity.
func mixedSpec() Spec {
	spec := fastSpec()
	spec.Scenarios = scenarioSpec().Scenarios
	spec.Intensities = []float64{1, 2}
	return spec
}

// encodeResult renders the result JSON with the checkpoint stats stripped:
// grid mode has none, and byte-identity claims cover the measurements.
func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	cp := res.Checkpoint
	res.Checkpoint = nil
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	res.Checkpoint = cp
	return buf.Bytes()
}

// TestAdaptiveMatchesGridByteIdentical is the tentpole determinism check:
// mode "adaptive" must produce byte-identical results to mode "grid", at any
// worker count, while serving sibling cells from forked checkpoints instead
// of full replays.
func TestAdaptiveMatchesGridByteIdentical(t *testing.T) {
	run := func(mode string, workers int) *Result {
		t.Helper()
		spec := mixedSpec()
		spec.Mode = mode
		res, err := Run(context.Background(), spec, Options{Workers: workers, Resolve: resolveStubs})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	grid := encodeResult(t, run(ModeGrid, 4))
	adaptiveSeq := run(ModeAdaptive, 1)
	adaptivePar := run(ModeAdaptive, 8)

	if got := encodeResult(t, adaptiveSeq); !bytes.Equal(got, grid) {
		t.Fatalf("adaptive workers=1 diverged from grid:\n%s\nvs\n%s", got, grid)
	}
	if got := encodeResult(t, adaptivePar); !bytes.Equal(got, grid) {
		t.Fatalf("adaptive workers=8 diverged from grid:\n%s\nvs\n%s", got, grid)
	}

	// 8 fault cells: {crash, transient} x 2 counts x 2 seeds -> 4 families
	// of 2 members. 8 scenario cells: {blip, drizzle} x 2 intensities x
	// 2 seeds -> 4 families of 2. Each family pays one full prefix+suffix
	// run (the representative) and forks the sibling.
	for _, res := range []*Result{adaptiveSeq, adaptivePar} {
		cp := res.Checkpoint
		if cp == nil {
			t.Fatal("adaptive result carries no checkpoint stats")
		}
		if cp.Families != 8 || cp.ForkServed != 8 || cp.FullReplays != 8 {
			t.Fatalf("checkpoint stats = %+v, want 8 families / 8 forkServed / 8 fullReplays", cp)
		}
		if cp.WallSaved <= 0 {
			t.Fatalf("wall saved = %v, want positive", cp.WallSaved)
		}
	}
	if run(ModeGrid, 4).Checkpoint != nil {
		t.Fatal("grid result carries checkpoint stats")
	}
}

// TestAdaptiveParallelBaseMatchesSequential: a spec whose base runs on the
// parallel kernel still forks — each family's checkpointed prefix is built
// sequential — and its JSON, checkpoint counts included, is byte-identical
// to the sequential spec's.
func TestAdaptiveParallelBaseMatchesSequential(t *testing.T) {
	encode := func(simWorkers int) ([]byte, *CheckpointStats) {
		t.Helper()
		spec := mixedSpec()
		spec.Mode = ModeAdaptive
		spec.Base.SimWorkers = simWorkers
		res, err := Run(context.Background(), spec, Options{Workers: 2, Resolve: resolveStubs})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res.Checkpoint
	}
	seq, seqCP := encode(0)
	par, parCP := encode(2)
	if !bytes.Equal(par, seq) {
		t.Fatalf("simWorkers 2 diverged from simWorkers 0:\n%s\nvs\n%s", par, seq)
	}
	parCP.WallSaved, seqCP.WallSaved = 0, 0 // timing, not in the JSON
	if parCP.ForkServed == 0 || *parCP != *seqCP {
		t.Fatalf("checkpoint stats: simWorkers 2 %+v, simWorkers 0 %+v; want equal, with forks served", parCP, seqCP)
	}
}

// TestAdaptiveInvalidSiblingFailsAsInGrid: a family member whose fault count
// exceeds the client-free validators fails alone, with the error a
// from-scratch run of it reports — a steered continuation used to run it over
// client-facing validators instead.
func TestAdaptiveInvalidSiblingFailsAsInGrid(t *testing.T) {
	run := func(mode string) *Result {
		t.Helper()
		spec := fastSpec()
		spec.Faults = []string{"transient"}
		spec.CountDeltas = []int{0, 3} // t = 3: f = 3 fits the 5 client-free validators, f = 6 does not
		spec.Seeds = []int64{1}
		spec.Mode = mode
		res, err := Run(context.Background(), spec, Options{Workers: 1, Resolve: resolveStubs})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	grid, adaptive := run(ModeGrid), run(ModeAdaptive)
	if got, want := encodeResult(t, adaptive), encodeResult(t, grid); !bytes.Equal(got, want) {
		t.Fatalf("adaptive diverged from grid:\n%s\nvs\n%s", got, want)
	}
	if msg := adaptive.Cells[1].Error; !strings.Contains(msg, "6 faulty nodes") {
		t.Fatalf("oversized sibling's error = %q", msg)
	}
}

// TestAdaptiveMetricsIdenticalToGrid extends the byte-identity claim to the
// observability layer: the cloned-and-restamped recorder a forked member
// hands out must match the from-scratch recorder of the same cell.
func TestAdaptiveMetricsIdenticalToGrid(t *testing.T) {
	collect := func(mode string, workers int) map[string][]byte {
		t.Helper()
		spec := mixedSpec()
		spec.Mode = mode
		dumps := make(map[string][]byte)
		var mu sync.Mutex
		res, err := Run(context.Background(), spec, Options{
			Workers: workers,
			Resolve: resolveStubs,
			Metrics: func(cell Cell, rec *metrics.Recorder) {
				var buf bytes.Buffer
				if err := rec.WriteJSONL(&buf); err != nil {
					t.Error(err)
					return
				}
				if err := rec.WriteCSV(&buf); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				dumps[cell.Slug()] = buf.Bytes()
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedCells != 0 {
			t.Fatalf("failed cells = %d", res.FailedCells)
		}
		return dumps
	}

	grid := collect(ModeGrid, 4)
	adaptive := collect(ModeAdaptive, 8)
	if len(grid) != 16 || len(adaptive) != 16 {
		t.Fatalf("dumps = %d grid / %d adaptive, want 16 each", len(grid), len(adaptive))
	}
	for slug, want := range grid {
		got, ok := adaptive[slug]
		if !ok {
			t.Errorf("cell %s missing from adaptive dumps", slug)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s metrics diverged between grid and adaptive", slug)
		}
	}
}

// TestAdaptivePanicFallsBackToReplay: a model panic inside a forked
// continuation corrupts the live object graph, so the surviving family
// members must fall back to full replays — and every cell must still report
// exactly what grid mode reports.
func TestAdaptivePanicFallsBackToReplay(t *testing.T) {
	base := fastSpec()
	base.Systems = []string{"Panicky"}
	base.Faults = []string{"crash"}
	base.Seeds = []int64{1}

	run := func(mode string) *Result {
		t.Helper()
		spec := base
		spec.Mode = mode
		res, err := Run(context.Background(), spec, Options{Workers: 2, Resolve: resolveStubs})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	grid := run(ModeGrid)
	adaptive := run(ModeAdaptive)
	if !bytes.Equal(encodeResult(t, adaptive), encodeResult(t, grid)) {
		t.Fatal("adaptive diverged from grid on a panicking family")
	}
	if adaptive.FailedCells != 2 {
		t.Fatalf("failed cells = %d, want 2", adaptive.FailedCells)
	}
	for _, c := range adaptive.Cells {
		if !strings.Contains(c.Error, "accounts hash mismatch") {
			t.Fatalf("cell error = %q", c.Error)
		}
	}
	// The stub panics when the crash halts it, right after the checkpoint:
	// the representative's continuation fails, and the one sibling replays
	// from scratch instead of reusing the corrupted graph.
	cp := adaptive.Checkpoint
	if cp == nil || cp.Families != 1 || cp.ForkServed != 0 || cp.FullReplays != 2 {
		t.Fatalf("checkpoint stats = %+v, want 1 family / 0 forkServed / 2 fullReplays", cp)
	}
}

// TestGroupFamilies pins the family grouping rules: eligible cells group by
// (system, seed, fault kind or scenario, inject, outage); secure-client
// cells and foreign coordinates stay singletons; grid order is preserved.
func TestGroupFamilies(t *testing.T) {
	cells := []Cell{
		{System: "A", Fault: "crash", Count: 3, InjectSec: 15, Seed: 1},
		{System: "A", Fault: "secure-client", Seed: 1},
		{System: "A", Fault: "crash", Count: 4, InjectSec: 15, Seed: 1},
		{System: "A", Fault: "crash", Count: 3, InjectSec: 20, Seed: 1},
		{System: "A", Scenario: "blip", Intensity: 1, Seed: 1},
		{System: "A", Fault: "crash", Count: 3, InjectSec: 15, Seed: 2},
		{System: "A", Scenario: "blip", Intensity: 2, Seed: 1},
		{System: "B", Fault: "crash", Count: 3, InjectSec: 15, Seed: 1},
	}
	if grid := groupFamilies(cells, false); len(grid) != len(cells) {
		t.Fatalf("grid units = %v, want one per cell", grid)
	}
	units := groupFamilies(cells, true)
	want := [][]int{{0, 2}, {1}, {3}, {4, 6}, {5}, {7}}
	if len(units) != len(want) {
		t.Fatalf("units = %v, want %v", units, want)
	}
	for u := range units {
		if len(units[u]) != len(want[u]) {
			t.Fatalf("unit %d = %v, want %v", u, units[u], want[u])
		}
		for j := range units[u] {
			if units[u][j] != want[u][j] {
				t.Fatalf("unit %d = %v, want %v", u, units[u], want[u])
			}
		}
	}
}
