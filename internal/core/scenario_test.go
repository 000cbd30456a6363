package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"stabl/internal/metrics"
	"stabl/internal/scenario"
)

func buildScenario(t *testing.T, spec scenario.Spec) *scenario.Scenario {
	t.Helper()
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioAndFaultMutuallyExclusive(t *testing.T) {
	sc := buildScenario(t, scenario.Spec{Name: "x", Actions: []scenario.ActionSpec{
		{Op: "crash", AtSec: 10, Nodes: "7", UntilSec: 20},
	}})
	_, err := Run(Config{
		System:   &stubSystem{},
		Duration: 30 * time.Second,
		Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 10 * time.Second},
		Scenario: sc,
	})
	if err == nil {
		t.Fatal("config with both Fault and Scenario accepted")
	}
	if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("error %q does not explain the exclusion", err)
	}
}

func TestScenarioCompileErrorsSurfaceInValidate(t *testing.T) {
	sc := buildScenario(t, scenario.Spec{Name: "oob", Actions: []scenario.ActionSpec{
		{Op: "crash", AtSec: 10, Nodes: "99"},
	}})
	_, err := Run(Config{System: &stubSystem{}, Duration: 30 * time.Second, Scenario: sc})
	if err == nil {
		t.Fatal("out-of-range scenario node accepted")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error %q does not mention the range violation", err)
	}
}

// TestScenarioRunDeterministicAndAnnotated runs a composed scenario twice and
// requires identical results, faulty-node sets resolved from the scenario's
// random selector, and phase annotations in the metrics event stream.
func TestScenarioRunDeterministicAndAnnotated(t *testing.T) {
	spec := scenario.Spec{Name: "mix", Actions: []scenario.ActionSpec{
		{Op: "crash", AtSec: 10, Nodes: "random(1)", UntilSec: 20},
		{Op: "loss", AtSec: 15, Nodes: "all", Rate: 0.05, UntilSec: 25},
	}}
	run := func(rec *metrics.Recorder) (*RunResult, error) {
		return Run(Config{
			System:   &stubSystem{},
			Seed:     3,
			Duration: 40 * time.Second,
			Scenario: buildScenario(t, spec),
			Metrics:  rec,
		})
	}
	a, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.UniqueCommits != b.UniqueCommits || a.Events != b.Events || a.Submitted != b.Submitted {
		t.Fatalf("scenario run not deterministic: %d/%d/%d vs %d/%d/%d",
			a.UniqueCommits, a.Events, a.Submitted, b.UniqueCommits, b.Events, b.Submitted)
	}
	// FaultyNodes is the union of every targeted node; the loss action
	// covers "all", so the whole deployment is marked affected.
	if len(a.FaultyNodes) != 10 {
		t.Fatalf("faulty nodes = %v, want all 10 (loss targets every interface)", a.FaultyNodes)
	}

	rec := metrics.NewRecorder(5 * time.Second)
	if _, err := run(rec); err != nil {
		t.Fatal(err)
	}
	info := rec.Run()
	if info.Fault != "scenario:mix" {
		t.Fatalf("run info fault = %q, want scenario:mix", info.Fault)
	}
	var phases []string
	var inject, recovered bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case metrics.EventPhase:
			phases = append(phases, ev.Detail)
		case metrics.EventFaultInject:
			inject = ev.At == 10*time.Second
		case metrics.EventFaultRecover:
			recovered = ev.At == 25*time.Second
		}
	}
	// 2 actions with auto-reverts = 4 phase marks: crash, loss, restart,
	// loss clear.
	if len(phases) != 4 {
		t.Fatalf("phase events = %v, want 4", phases)
	}
	if !strings.HasPrefix(phases[0], "crash ") || !strings.HasPrefix(phases[1], "loss p=0.05") {
		t.Fatalf("phase labels = %v", phases)
	}
	if !inject || !recovered {
		t.Fatalf("inject/recover annotations missing (inject=%v recover=%v): %v", inject, recovered, phases)
	}
}

// TestPlanRunAnnotatedLikeAScenario: a fault plan is a one-action scenario, so
// its recorder carries the same phase annotations — one per primary action —
// ahead of the inject and recover marks it always had, under the plan's own
// run identity.
func TestPlanRunAnnotatedLikeAScenario(t *testing.T) {
	rec := metrics.NewRecorder(5 * time.Second)
	_, err := Run(Config{
		System:   &stubSystem{},
		Seed:     3,
		Duration: 40 * time.Second,
		Fault:    FaultPlan{Kind: FaultSlow, Count: 2, InjectAt: 10 * time.Second, RecoverAt: 20 * time.Second, SlowBy: 2 * time.Second},
		Metrics:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info := rec.Run(); info.Fault != "slow" || info.InjectAt != 10*time.Second || info.RecoverAt != 20*time.Second {
		t.Fatalf("run info = %+v, want fault slow, inject 10s, recover 20s", info)
	}
	var got []string
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case metrics.EventPhase, metrics.EventFaultInject, metrics.EventFaultRecover:
			got = append(got, fmt.Sprintf("%v %s %s", ev.At, ev.Kind, ev.Detail))
		}
	}
	want := []string{
		"10s phase slow +2s n9,n8",
		"20s phase slow clear n9,n8",
		"10s fault-inject slow f=2",
		"20s fault-recover slow f=2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("annotations:\n got %q\nwant %q", got, want)
	}
}

// TestCompareScenarioMeasuresRecovery checks that Compare against a reverting
// scenario reports the scenario name, strips it from the baseline, and
// measures recovery from the last revert instant.
func TestCompareScenarioMeasuresRecovery(t *testing.T) {
	spec := scenario.Spec{Name: "blip", Actions: []scenario.ActionSpec{
		{Op: "crash", AtSec: 20, Nodes: "random(2)", UntilSec: 40},
	}}
	cmp, err := Compare(Config{
		System:   &stubSystem{},
		Seed:     5,
		Duration: 90 * time.Second,
		Scenario: buildScenario(t, spec),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Scenario != "blip" {
		t.Fatalf("comparison scenario = %q", cmp.Scenario)
	}
	if cmp.Fault.Kind != FaultNone {
		t.Fatalf("comparison fault kind = %v, want none", cmp.Fault.Kind)
	}
	if len(cmp.Baseline.FaultyNodes) != 0 {
		t.Fatalf("baseline has faulty nodes: %v", cmp.Baseline.FaultyNodes)
	}
	if cmp.InjectAt != 20*time.Second || cmp.RecoverAt != 40*time.Second {
		t.Fatalf("timeline instants = %v, %v; want the crash at 20s and the restart at 40s", cmp.InjectAt, cmp.RecoverAt)
	}
	if !strings.Contains(cmp.String(), "scenario:blip") {
		t.Fatalf("String() missing scenario tag:\n%s", cmp.String())
	}
}
