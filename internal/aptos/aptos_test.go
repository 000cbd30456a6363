package aptos

import (
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/simnet"
)

func TestTolerance(t *testing.T) {
	if got := Default().Tolerance(10); got != 3 {
		t.Fatalf("Tolerance(10) = %d, want 3", got)
	}
}

func TestWithResourcesScalesExecBudget(t *testing.T) {
	s := Default()
	scaled, ok := s.WithResources(2).(*System)
	if !ok {
		t.Fatal("WithResources returned unexpected type")
	}
	if scaled.cfg.Base.ExecRate != 2*s.cfg.Base.ExecRate {
		t.Fatalf("ExecRate = %v, want doubled", scaled.cfg.Base.ExecRate)
	}
}

func TestBaselineCommitsWorkload(t *testing.T) {
	res, err := core.Run(core.Config{
		System:   Default(),
		Seed:     2,
		Duration: 90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LivenessLost {
		t.Fatalf("baseline lost liveness; last commit %v", res.LastCommitAt)
	}
	if res.UniqueCommits < res.Submitted*90/100 {
		t.Fatalf("commits = %d of %d", res.UniqueCommits, res.Submitted)
	}
}

func TestCrashCausesViewChangesButSurvives(t *testing.T) {
	cfg := core.Config{
		System:   Default(),
		Seed:     2,
		Duration: 240 * time.Second,
		Fault: core.FaultPlan{
			Kind:     core.FaultCrash,
			InjectAt: 60 * time.Second,
		},
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LivenessLost {
		t.Fatal("f=t crashes must not kill Aptos")
	}
	// Right after the crash rounds with dead leaders time out; later,
	// leader reputation has excluded them and throughput restabilizes
	// (paper: oscillations damp in ~82 s).
	early := res.Throughput.MeanRate(62*time.Second, 90*time.Second)
	late := res.Throughput.MeanRate(180*time.Second, 235*time.Second)
	baseline := res.Throughput.MeanRate(20*time.Second, 58*time.Second)
	if late < 0.85*baseline {
		t.Fatalf("no restabilization: baseline=%.1f early=%.1f late=%.1f", baseline, early, late)
	}
}

func TestTransientBacklogNotCleared(t *testing.T) {
	cfg := core.Config{
		System:   Default(),
		Seed:     2,
		Duration: 400 * time.Second,
		Fault: core.FaultPlan{
			Kind:      core.FaultTransient,
			InjectAt:  133 * time.Second,
			RecoverAt: 266 * time.Second,
		},
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stalled during the outage (f = t+1 > quorum margin).
	during := res.Throughput.MeanRate(150*time.Second, 260*time.Second)
	if during > 30 {
		t.Fatalf("during outage rate = %.1f, want near-stall", during)
	}
	if res.LivenessLost {
		t.Fatal("Aptos must resume committing after reboot")
	}
	// The execution budget bounds post-recovery drain: far below the
	// Algorand/Redbelly-style sharp backlog peak, and the client backlog
	// is still visibly unprocessed at the end of the run.
	post := res.Throughput.MeanRate(280*time.Second, 395*time.Second)
	if post > 340 {
		t.Fatalf("post-recovery rate %.1f exceeds exec budget", post)
	}
	if res.Pending == 0 {
		t.Fatal("expected a residual uncommitted backlog at end of run")
	}
}

func TestLeaderExclusionAfterFailures(t *testing.T) {
	peers := []simnet.NodeID{0, 1, 2, 3}
	v := &validator{
		cfg:  DefaultConfig(),
		base: chain.NewBaseNode(0, peers, nil, chain.BaseConfig{}),
		n:    4,
		state: state{
			failCount:  map[simnet.NodeID]int{2: 3},
			excludedAt: map[simnet.NodeID]int{2: 10},
		},
	}
	if !v.excluded(2, 12) {
		t.Fatal("leader with FailThreshold failures not excluded")
	}
	if got := v.leader(10); got != 3 {
		t.Fatalf("leader(10) = %v, want rotation to skip excluded node 2", got)
	}
	// Exclusion expires with a second chance: one more failure re-excludes.
	expiry := 10 + v.cfg.ExcludeRounds + 1
	if v.excluded(2, expiry) {
		t.Fatal("exclusion did not expire")
	}
	if v.failCount[2] != v.cfg.FailThreshold-1 {
		t.Fatalf("failCount after expiry = %d, want %d", v.failCount[2], v.cfg.FailThreshold-1)
	}
}
