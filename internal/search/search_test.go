package search

import (
	"fmt"
	"testing"
	"time"

	"stabl/internal/core"
	"stabl/internal/redbelly"
	"stabl/internal/scenario"
)

func TestBisectBracketsIntegerBoundary(t *testing.T) {
	probes := 0
	b, err := Bisect(Axis{Name: "count", Lo: 1, Hi: 8, Integer: true}, func(x float64) (bool, error) {
		probes++
		return x >= 5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Bracketed() || b.LastPass != 4 || b.FirstFail != 5 {
		t.Fatalf("boundary = %+v, want lastPass=4 firstFail=5", b)
	}
	if probes != len(b.Probes) {
		t.Fatalf("probe log has %d entries, ran %d", len(b.Probes), probes)
	}
	if probes > 5 {
		t.Fatalf("bisection used %d probes over range 8, want ≤ 5", probes)
	}
}

func TestBisectFloatResolution(t *testing.T) {
	b, err := Bisect(Axis{Name: "intensity", Lo: 0, Hi: 4, Resolution: 0.25}, func(x float64) (bool, error) {
		return x >= 1.3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Bracketed() {
		t.Fatalf("boundary = %+v, want bracketed", b)
	}
	if b.FirstFail-b.LastPass > 0.25 {
		t.Fatalf("bracket [%g, %g] wider than resolution", b.LastPass, b.FirstFail)
	}
	if b.LastPass >= 1.3 || b.FirstFail < 1.3 {
		t.Fatalf("bracket [%g, %g] does not contain 1.3", b.LastPass, b.FirstFail)
	}
}

func TestBisectOneSided(t *testing.T) {
	allFail, err := Bisect(Axis{Name: "count", Lo: 1, Hi: 8, Integer: true}, func(float64) (bool, error) {
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allFail.HavePass || !allFail.HaveFail || allFail.FirstFail != 1 {
		t.Fatalf("all-fail boundary = %+v", allFail)
	}
	if len(allFail.Probes) != 1 {
		t.Fatalf("all-fail used %d probes, want 1", len(allFail.Probes))
	}

	nonePass, err := Bisect(Axis{Name: "count", Lo: 1, Hi: 8, Integer: true}, func(float64) (bool, error) {
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !nonePass.HavePass || nonePass.HaveFail || nonePass.LastPass != 8 {
		t.Fatalf("none-fail boundary = %+v", nonePass)
	}
}

func TestBisectRejectsEmptyRange(t *testing.T) {
	if _, err := Bisect(Axis{Name: "x", Lo: 3, Hi: 3}, func(float64) (bool, error) {
		return false, nil
	}); err == nil {
		t.Fatal("want error for hi <= lo")
	}
}

// shrinkFixture: a three-action scenario where only the loss action with at
// least 2 nodes and at least 20 s of window causes the (synthetic) failure.
func shrinkFixture() scenario.Spec {
	return scenario.Spec{
		Name: "fixture",
		Actions: []scenario.ActionSpec{
			{Op: "jitter", AtSec: 10, Nodes: "all", JitterSec: 1, UntilSec: 90},
			{Op: "loss", AtSec: 10, Nodes: "all", Rate: 0.05, UntilSec: 90},
			{Op: "slow", AtSec: 20, Nodes: "random(2)", DelaySec: 5, UntilSec: 60},
		},
	}
}

func fixtureFails(spec scenario.Spec) (bool, error) {
	for _, a := range spec.Actions {
		if a.Op != "loss" {
			continue
		}
		size, ok := nodeSetSize(a.Nodes, 5)
		if !ok {
			continue
		}
		if size >= 2 && a.UntilSec-a.AtSec >= 20 {
			return true, nil
		}
	}
	return false, nil
}

func TestShrinkFindsMinimalScenario(t *testing.T) {
	res, err := Shrink(shrinkFixture(), 5, fixtureFails)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spec.Actions) != 1 {
		t.Fatalf("shrunk to %d actions, want 1: %+v", len(res.Spec.Actions), res.Spec.Actions)
	}
	a := res.Spec.Actions[0]
	if a.Op != "loss" {
		t.Fatalf("kept op %s, want loss", a.Op)
	}
	if a.Nodes != "random(2)" {
		t.Fatalf("kept nodes %q, want random(2)", a.Nodes)
	}
	if got := a.UntilSec - a.AtSec; got != 20 {
		t.Fatalf("kept window %gs, want 20", got)
	}
	if res.DroppedActions != 2 {
		t.Fatalf("dropped %d actions, want 2", res.DroppedActions)
	}
	if res.ShrunkNodes != 3 {
		t.Fatalf("shrunk %d nodes, want 3 (all=5 → 2)", res.ShrunkNodes)
	}
	if res.ShortenedSec != 60 {
		t.Fatalf("shortened %gs, want 60 (80 → 20)", res.ShortenedSec)
	}
	// The witnessed minimum still fails and still builds.
	if fail, _ := fixtureFails(res.Spec); !fail {
		t.Fatal("shrunk spec no longer fails")
	}
	if _, err := res.Spec.Build(); err != nil {
		t.Fatalf("shrunk spec no longer builds: %v", err)
	}
}

func TestShrinkRejectsPassingScenario(t *testing.T) {
	spec := shrinkFixture()
	if _, err := Shrink(spec, 5, func(scenario.Spec) (bool, error) {
		return false, nil
	}); err == nil {
		t.Fatal("want error when the input scenario does not fail")
	}
}

// TestShrinkSizesAllByCoresPool: the shrinker sizes "all" by the
// fault-eligible pool core deploys. With aggregated flows Clients counts
// modeled clients and exceeds Validators, while core serves them from the
// validators its worst-case fault set leaves alone — 13 of 20 Redbelly
// validators (f = t+1 = 7) — so "all" is 7 nodes and shrinks, where
// validators − clients would have been −80 and left it unshrunk.
func TestShrinkSizesAllByCoresPool(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen 40 s experiments")
	}
	spec := scenario.Spec{Name: "wipe", Actions: []scenario.ActionSpec{
		{Op: "crash", AtSec: 15, Nodes: "all", UntilSec: 25},
	}}
	base := core.Config{
		System: redbelly.Default(), Seed: 1, Validators: 20, Clients: 100, Flows: 4,
		RatePerClient: 2, Duration: 40 * time.Second,
	}
	if d := base.Deployment(); d.Validators-d.Clients != 7 {
		t.Fatalf("deployment %+v, want 7 fault-eligible validators", d)
	}
	baseline, err := core.Run(core.BaselineConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	d := base.Deployment()
	shrunk, err := Shrink(spec, d.Validators-d.Clients, func(cand scenario.Spec) (bool, error) {
		cfg := base
		if cfg.Scenario, err = cand.Build(); err != nil {
			return false, err
		}
		cmp, err := core.CompareWithBaseline(cfg, baseline)
		if err != nil {
			return false, err
		}
		return cmp.Score.Infinite || cmp.Score.Value > 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.ShrunkNodes == 0 {
		t.Fatalf("\"all\" was not shrunk: %+v", shrunk)
	}
	if got := shrunk.Spec.Actions[0].Nodes; got == "all" {
		t.Fatalf("shrunk spec still targets %q", got)
	}
}

func TestNodeSetHelpers(t *testing.T) {
	cases := []struct {
		sel  string
		pool int
		size int
		ok   bool
	}{
		{"all", 5, 5, true},
		{"random(3)", 5, 3, true},
		{"7,8,9", 5, 3, true},
		{"rolling(2, 30)", 5, 0, false},
	}
	for _, c := range cases {
		size, ok := nodeSetSize(c.sel, c.pool)
		if size != c.size || ok != c.ok {
			t.Errorf("nodeSetSize(%q) = (%d, %v), want (%d, %v)", c.sel, size, ok, c.size, c.ok)
		}
	}
	if got := shrunkNodes("all", 2); got != "random(2)" {
		t.Errorf("shrunkNodes(all, 2) = %q", got)
	}
	if got := shrunkNodes("7,8,9", 2); got != "7,8" {
		t.Errorf("shrunkNodes(7,8,9, 2) = %q", got)
	}
	if got := shrunkNodes("rolling(2, 30)", 1); got != "" {
		t.Errorf("shrunkNodes(rolling) = %q, want empty", got)
	}
}

// TestBisectKeepsProbesOnError: a probe's error stops the search, and the
// boundary returned with it lists the probes evaluated before.
func TestBisectKeepsProbesOnError(t *testing.T) {
	b, err := Bisect(Axis{Name: "count", Lo: 1, Hi: 6, Integer: true}, func(x float64) (bool, error) {
		if x > 5 {
			return false, fmt.Errorf("no room for %g", x)
		}
		return false, nil
	})
	if err == nil || b == nil || len(b.Probes) != 1 || b.Probes[0].X != 1 {
		t.Fatalf("boundary %+v, err %v; want lo's probe and the error", b, err)
	}
}
