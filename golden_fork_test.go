package stabl

import (
	"bytes"
	"testing"
	"time"

	"stabl/internal/core"
	"stabl/internal/metrics"
)

// forkGoldenConfig is the deployment every fork golden uses: seed 42, a
// transient f=t+1 outage injected at 40 s — the checkpoint instant — and
// recovered at 80 s.
func forkGoldenConfig(sys System) core.Config {
	return core.Config{
		System:   sys,
		Seed:     42,
		Duration: 120 * time.Second,
		Fault: core.FaultPlan{
			Kind:      core.FaultTransient,
			InjectAt:  40 * time.Second,
			RecoverAt: 80 * time.Second,
		},
	}
}

// runForked builds cfg, checkpoints just before the first disruptive action
// and runs the continuation to the end.
func runForked(t *testing.T, cfg core.Config) (*core.Experiment, *core.ForkPoint, *core.RunResult) {
	t.Helper()
	e, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := core.RunToCheckpoint(e)
	if err != nil {
		t.Fatal(err)
	}
	if fp == nil {
		t.Fatal("RunToCheckpoint declined to fork")
	}
	e.RunUntil(e.Config().Duration)
	return e, fp, e.Collect()
}

func recorderLines(t *testing.T, rec *metrics.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenForkMatchesReplay pins the tentpole determinism guarantee on all
// five systems: a run checkpointed at its fault-injection instant and
// continued from the fork is byte-identical — scores, event counts, network
// stats, metrics timelines — to the same run executed from t=0, and rewinding
// the fork reproduces the continuation again. The overlay rows put routers —
// sequence numbers, dupemaps, stall levels — and relays in flight inside the
// checkpoint.
func TestGoldenForkMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("fork golden skipped in -short mode")
	}
	type row struct {
		name    string
		sys     System
		overlay string
	}
	var rows []row
	for _, sys := range Systems() {
		rows = append(rows, row{name: sys.Name(), sys: sys})
	}
	for _, r := range []struct{ system, overlay string }{
		{"Algorand", "kadcast"}, {"Redbelly", "kadcast"}, {"Solana", "kadcast"},
	} {
		sys, err := SystemByName(r.system)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name: r.system + "-" + r.overlay, sys: sys, overlay: r.overlay})
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			cfg := forkGoldenConfig(r.sys)
			if r.overlay != "" {
				cfg.Validators = 16
				cfg.Overlay = OverlayConfig{Topology: r.overlay}
			}
			recA := metrics.NewRecorder(0)
			cfgA := cfg
			cfgA.Metrics = recA
			want, err := core.Run(cfgA)
			if err != nil {
				t.Fatal(err)
			}

			recB := metrics.NewRecorder(0)
			cfgB := cfg
			cfgB.Metrics = recB
			e, fp, got := runForked(t, cfgB)
			sameRender(t, "forked continuation against replay", renderRun("run", want), renderRun("run", got))
			if r.overlay != "" && got.Overlay.Relayed == 0 {
				t.Error("the overlay relayed nothing; the row exercises no router state")
			}
			wantLines := recorderLines(t, recA)
			if gotLines := recorderLines(t, recB); !bytes.Equal(wantLines, gotLines) {
				t.Errorf("forked metrics timeline diverged from replay (%d vs %d bytes)",
					len(wantLines), len(gotLines))
			}

			// Rewind and run the identical continuation again: the first
			// continuation must not leak into the second.
			fp.Rewind()
			e.RunUntil(e.Config().Duration)
			sameRender(t, "second continuation against first", renderRun("run", got), renderRun("run", e.Collect()))
			if gotLines := recorderLines(t, recB); !bytes.Equal(wantLines, gotLines) {
				t.Errorf("second continuation's metrics timeline diverged")
			}
		})
	}
}

// TestForkRefusesParallel: checkpoints snapshot the sequential kernel's
// layout, so Fork and RunToCheckpoint refuse an experiment on the parallel
// kernel with an error, before Start as after it, and the refused
// RunToCheckpoint leaves the experiment un-started.
func TestForkRefusesParallel(t *testing.T) {
	sys, err := SystemByName("Redbelly")
	if err != nil {
		t.Fatal(err)
	}
	cfg := forkGoldenConfig(sys)
	cfg.SimWorkers = 2
	e, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(when string) {
		t.Helper()
		if _, err := e.Fork(); err == nil {
			t.Errorf("Fork %s Start on a parallel experiment succeeded, want error", when)
		}
		if fp, err := core.RunToCheckpoint(e); err == nil {
			t.Errorf("RunToCheckpoint %s Start on a parallel experiment returned %v, want error", when, fp)
		}
	}
	refused("before")
	e.Start() // panics if the refused RunToCheckpoint started the experiment
	e.RunUntil(10 * time.Second)
	refused("after")
}

// TestForkDivergeIndependence steers a forked continuation onto a sibling
// fault schedule (a larger kill set), checks it matches a from-scratch run of
// the sibling config, then rewinds and re-runs the original schedule to prove
// the steered continuation leaked nothing back.
func TestForkDivergeIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("fork divergence golden skipped in -short mode")
	}
	sys, err := SystemByName("Redbelly")
	if err != nil {
		t.Fatal(err)
	}
	cfg := forkGoldenConfig(sys)
	cfg.Fault.Count = 2
	sibling := cfg
	sibling.Fault.Count = 4

	e, fp, origA := runForked(t, cfg)

	// Continuation 2: the sibling schedule, steered onto its timeline.
	sibTimeline, err := sibling.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	fp.Rewind()
	e.Steer(sibTimeline)
	e.RunUntil(e.Config().Duration)
	steered := e.Collect()
	wantSibling, err := core.Run(sibling)
	if err != nil {
		t.Fatal(err)
	}
	sameRender(t, "steered continuation against from-scratch sibling run", renderRun("run", wantSibling), renderRun("run", steered))

	// Continuation 3: rewind restores the original timeline, script
	// contents and reported targets alike.
	fp.Rewind()
	e.RunUntil(e.Config().Duration)
	sameRender(t, "original schedule after the steered continuation", renderRun("run", origA), renderRun("run", e.Collect()))
}
