package stabl

import (
	"strings"
	"testing"
	"time"
)

func TestSystemsRegistry(t *testing.T) {
	systems := Systems()
	if len(systems) != 5 {
		t.Fatalf("Systems() = %d entries", len(systems))
	}
	want := []string{"Algorand", "Aptos", "Avalanche", "Redbelly", "Solana"}
	for i, sys := range systems {
		if sys.Name() != want[i] {
			t.Fatalf("Systems()[%d] = %s, want %s", i, sys.Name(), want[i])
		}
	}
	for _, name := range want {
		sys, err := SystemByName(name)
		if err != nil || sys.Name() != name {
			t.Fatalf("SystemByName(%s) = %v, %v", name, sys, err)
		}
	}
	if _, err := SystemByName("Bitcoin"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestTolerancesMatchPaper(t *testing.T) {
	// Paper §2: t = ceil(n/5)-1 for Algorand and Avalanche, ceil(n/3)-1
	// for Aptos, Redbelly, Solana; with n = 10 the secure client uses
	// max(t)+1 = 4 endpoints.
	want := map[string]int{
		"Algorand": 1, "Avalanche": 1,
		"Aptos": 3, "Redbelly": 3, "Solana": 3,
	}
	for _, sys := range Systems() {
		if got := sys.Tolerance(10); got != want[sys.Name()] {
			t.Fatalf("%s Tolerance(10) = %d, want %d", sys.Name(), got, want[sys.Name()])
		}
	}
}

func TestSensitivityHelper(t *testing.T) {
	s := Sensitivity([]float64{1, 1, 1}, []float64{3, 3, 3})
	if s.Infinite || s.Value <= 0 {
		t.Fatalf("Sensitivity = %+v", s)
	}
}

// TestPaperShape reproduces the paper's qualitative findings end to end. It
// runs the full Fig 7 matrix (40 experiment runs at the paper's scale) and
// checks each claim of the DESIGN.md per-experiment index.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix shape test skipped in -short mode")
	}
	radar, err := Fig7(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(sys string, kind FaultKind) *Comparison {
		cmp := radar.Cells[sys][kind]
		if cmp == nil {
			t.Fatalf("missing cell %s/%v", sys, kind)
		}
		return cmp
	}

	t.Run("Fig3a_crash", func(t *testing.T) {
		// (i) All blockchains except Redbelly are significantly
		// impacted by isolated failures; Redbelly's score is the
		// lowest by a clear margin.
		redbelly := cell("Redbelly", FaultCrash)
		if redbelly.Score.Infinite {
			t.Fatal("Redbelly crash score infinite")
		}
		for _, sys := range []string{"Algorand", "Aptos", "Avalanche", "Solana"} {
			cmp := cell(sys, FaultCrash)
			if cmp.Score.Infinite {
				t.Fatalf("%s lost liveness under f=t crashes", sys)
			}
			if cmp.Score.Value < 2*redbelly.Score.Value {
				t.Errorf("%s crash score %.2f not clearly above Redbelly's %.2f",
					sys, cmp.Score.Value, redbelly.Score.Value)
			}
		}
	})

	t.Run("Fig3b_transient", func(t *testing.T) {
		// (iii) Avalanche and Solana cannot recover from transient
		// failures; Algorand, Aptos and Redbelly can.
		for _, sys := range []string{"Avalanche", "Solana"} {
			if !cell(sys, FaultTransient).Score.Infinite {
				t.Errorf("%s recovered from transient failures; paper says it cannot", sys)
			}
		}
		for _, sys := range []string{"Algorand", "Aptos", "Redbelly"} {
			cmp := cell(sys, FaultTransient)
			if cmp.Score.Infinite {
				t.Errorf("%s lost liveness under transient failures", sys)
			}
		}
		// Aptos is the most impacted of the recovering chains: it
		// cannot clear the backlog.
		aptos := cell("Aptos", FaultTransient)
		for _, sys := range []string{"Algorand", "Redbelly"} {
			if cell(sys, FaultTransient).Score.Value >= aptos.Score.Value {
				t.Errorf("%s transient score >= Aptos's; Aptos should be the slowest to recover", sys)
			}
		}
	})

	t.Run("Fig3c_partition", func(t *testing.T) {
		// Chains that cannot survive transient failures cannot survive
		// partitions either.
		for _, sys := range []string{"Avalanche", "Solana"} {
			if !cell(sys, FaultPartition).Score.Infinite {
				t.Errorf("%s recovered from the partition", sys)
			}
		}
		for _, sys := range []string{"Algorand", "Aptos", "Redbelly"} {
			if cell(sys, FaultPartition).Score.Infinite {
				t.Errorf("%s lost liveness under the partition", sys)
			}
		}
		// Algorand and Redbelly recover passively (timer-bound):
		// slower than after transient failures. Aptos reconnects fast.
		for _, sys := range []string{"Algorand", "Redbelly"} {
			tr, pa := cell(sys, FaultTransient), cell(sys, FaultPartition)
			if !tr.Recovered || !pa.Recovered {
				t.Fatalf("%s recovery not detected (transient %v, partition %v)",
					sys, tr.Recovered, pa.Recovered)
			}
			if pa.RecoveryTime <= tr.RecoveryTime+10*time.Second {
				t.Errorf("%s partition recovery (%v) not clearly slower than transient (%v)",
					sys, pa.RecoveryTime, tr.RecoveryTime)
			}
		}
		aptos := cell("Aptos", FaultPartition)
		if aptos.Recovered && aptos.RecoveryTime > 40*time.Second {
			t.Errorf("Aptos partition recovery %v; paper: fast (5s probes, 30s cap)", aptos.RecoveryTime)
		}
	})

	t.Run("Fig3d_secure_client", func(t *testing.T) {
		// (ii) Avalanche and Redbelly benefit from the redundancy;
		// Algorand and Solana barely change; Aptos is hampered by
		// speculative re-execution; Avalanche has the largest score.
		av := cell("Avalanche", FaultSecureClient)
		rb := cell("Redbelly", FaultSecureClient)
		if !av.Score.Benefit {
			t.Error("Avalanche does not benefit from the secure client")
		}
		if !rb.Score.Benefit {
			t.Error("Redbelly does not benefit from the secure client")
		}
		ap := cell("Aptos", FaultSecureClient)
		if ap.Score.Benefit {
			t.Error("Aptos benefits from the secure client; paper: degraded by Block-STM re-execution")
		}
		if ap.Score.Value <= 0.5 {
			t.Errorf("Aptos secure-client score %.2f; paper: visible degradation", ap.Score.Value)
		}
		// Algorand and Solana "remain unchanged": their secure-client
		// score is far below their own crash sensitivity (the exact
		// value carries run-to-run ramp noise for Algorand).
		for _, sys := range []string{"Algorand", "Solana"} {
			sc := cell(sys, FaultSecureClient).Score.Value
			crash := cell(sys, FaultCrash).Score.Value
			if sc > crash/2 {
				t.Errorf("%s secure-client score %.2f not well below its crash score %.2f",
					sys, sc, crash)
			}
		}
		for _, sys := range []string{"Algorand", "Redbelly", "Solana"} {
			if cell(sys, FaultSecureClient).Score.Value >= av.Score.Value {
				t.Errorf("%s secure-client score exceeds Avalanche's; paper: Avalanche largest", sys)
			}
		}
	})

	t.Run("Fig7_general_observations", func(t *testing.T) {
		// §8: blockchains are generally more sensitive to transient
		// failures than to permanent ones.
		for _, sys := range radar.Order {
			crash := cell(sys, FaultCrash)
			transient := cell(sys, FaultTransient)
			if transient.Score.Infinite {
				continue // infinitely worse, trivially satisfied
			}
			if crash.Score.Value > transient.Score.Value {
				t.Errorf("%s crash score %.2f exceeds transient score %.2f",
					sys, crash.Score.Value, transient.Score.Value)
			}
		}
		// Rendering smoke checks on the real matrix.
		out := RenderRadar(radar)
		for _, sys := range radar.Order {
			if !strings.Contains(out, sys) {
				t.Fatalf("radar rendering misses %s:\n%s", sys, out)
			}
		}
	})
}

// TestTransientRunIsReproducible re-runs a real-model experiment that
// exercises the retransmission and connection-recovery paths and demands
// identical results. Both paths consume the shared network RNG, so any
// map-order iteration between draws makes scores drift run to run
// (regression: client retries and connection keep-alives did exactly that).
func TestTransientRunIsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("reproducibility check skipped in -short mode")
	}
	cfg := Config{
		Seed:     7,
		Duration: 60 * time.Second,
		Fault: FaultPlan{
			Kind:      FaultTransient,
			InjectAt:  20 * time.Second,
			RecoverAt: 40 * time.Second,
		},
	}
	run := func() *Comparison {
		sys, err := SystemByName("Algorand")
		if err != nil {
			t.Fatal(err)
		}
		cfg.System = sys
		cmp, err := Compare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	first, second := run(), run()
	if first.Score != second.Score {
		t.Fatalf("score not reproducible: %v vs %v", first.Score, second.Score)
	}
	if first.Altered.UniqueCommits != second.Altered.UniqueCommits {
		t.Fatalf("commits not reproducible: %d vs %d",
			first.Altered.UniqueCommits, second.Altered.UniqueCommits)
	}
}

func TestFig1ProducesCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 skipped in -short mode")
	}
	fig, err := Fig1(Config{Seed: 42, Duration: 120 * time.Second, Fault: FaultPlan{InjectAt: 40 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if fig.System != "Aptos" {
		t.Fatalf("Fig1 system = %s", fig.System)
	}
	if len(fig.Baseline) == 0 || len(fig.Altered) == 0 {
		t.Fatal("empty eCDF curves")
	}
	last := fig.Baseline[len(fig.Baseline)-1]
	if last.Y != 1 {
		t.Fatalf("eCDF does not reach 1: %v", last)
	}
	out := RenderECDF(fig, 10)
	if !strings.Contains(out, "Aptos") {
		t.Fatalf("render = %q", out)
	}
}

func TestRecoveryTimesExtraction(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery extraction skipped in -short mode")
	}
	cmps, err := Fig5(Config{Seed: 42, Duration: 200 * time.Second,
		Fault: FaultPlan{InjectAt: 60 * time.Second, RecoverAt: 120 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	reports := RecoveryTimes(cmps)
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	out := RenderRecovery(reports)
	if !strings.Contains(out, "Redbelly") {
		t.Fatalf("render = %q", out)
	}
}

// TestSlowFaultShape checks the transient-communication-delay findings the
// paper reports alongside its main matrix: delays of tens of seconds crash
// all Solana nodes (§2) and wedge Avalanche behind its throttlers ("stops
// working when some messages arrive 2 minutes late", §5), while Redbelly
// rides them out.
func TestSlowFaultShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-fault shape test skipped in -short mode")
	}
	run := func(sys System) *RunResult {
		t.Helper()
		res, err := Run(Config{
			System:   sys,
			Seed:     42,
			Duration: 400 * time.Second,
			Fault: FaultPlan{
				Kind:      FaultSlow,
				InjectAt:  133 * time.Second,
				RecoverAt: 266 * time.Second,
				SlowBy:    120 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(NewSolana()); !res.LivenessLost {
		t.Errorf("Solana survived transient communication delays; last commit %v", res.LastCommitAt)
	}
	if res := run(NewAvalanche()); !res.LivenessLost {
		t.Errorf("Avalanche kept working with messages arriving 2 minutes late; last commit %v", res.LastCommitAt)
	}
	if res := run(NewRedbelly()); res.LivenessLost {
		t.Errorf("Redbelly lost liveness under transient delays; last commit %v", res.LastCommitAt)
	}
}

// TestChainIntegrity verifies that every chain model produces a valid hash
// chain: each committed block's parent link matches the previous block's
// content address, across the whole run.
func TestChainIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("integrity sweep skipped in -short mode")
	}
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			res, err := Run(Config{
				System:   sys,
				Seed:     42,
				Duration: 120 * time.Second,
				Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 40 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.IntegrityErrors) != 0 {
				t.Fatalf("hash-chain violations: %v", res.IntegrityErrors)
			}
			if res.LivenessLost {
				t.Fatalf("%s lost liveness under f=t crash", sys.Name())
			}
		})
	}
}

// TestAptosTransientForksAtSeed7 pins a known safety violation in the Aptos
// model so that it is not rediscovered, and so that fixing it is a deliberate
// change (ROADMAP item 1, "agreement and state oracles"): under the paper's
// flagship fault — t+1 validators down from 133 s to 266 s — at seed 7 the
// committee splits 4 against 6 at heights 127 and 128, right at the
// injection. The leader that collects a quorum stamps the block with its own
// ChainTip and TipHash and voters never compare the proposal's height with
// theirs (internal/aptos onVote), so two leaders of adjacent rounds whose
// tips differ across the crash both commit at one height. Seeds 1, 3, 4, 5
// and 11 do the same; 2, 6, 8, 9, 10 and 42 are clean (EXPERIMENTS.md, "The
// Aptos fork under the transient fault").
//
// When the model is fixed this test fails: delete it, add the `7
// paper-transient` line to scripts/sim_digests.txt, and update EXPERIMENTS.md
// and benchmark/pass.go's note on failed runs.
func TestAptosTransientForksAtSeed7(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned-finding run skipped in -short mode")
	}
	res, err := Run(Config{
		System:   NewAptos(),
		Seed:     7,
		Duration: 400 * time.Second,
		Fault:    FaultPlan{Kind: FaultTransient, InjectAt: 133 * time.Second, RecoverAt: 266 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"block 128 parent ",
		"block 129 parent ",
		"height 127: 4 validators committed ",
		"height 128: 6 validators committed ",
	}
	got := res.IntegrityErrors
	same := len(got) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = strings.HasPrefix(got[i], want[i])
	}
	if !same {
		t.Fatalf("Aptos under the transient fault at seed 7 reports %q, pinned: entries starting %q.\n"+
			"If the fork is fixed (no entries), delete this test — see its comment.", got, want)
	}
}

// TestAptosOscillationDamps quantifies §4's "the throughput instability
// reduces in about 82 seconds": after f = t crashes, Aptos's throughput
// oscillates through view changes until leader reputation excludes the dead
// validators, then restabilizes. The baseline shows no such phase.
func TestAptosOscillationDamps(t *testing.T) {
	if testing.Short() {
		t.Skip("damping test skipped in -short mode")
	}
	cmp, err := Compare(Config{
		System:   NewAptos(),
		Seed:     42,
		Duration: 400 * time.Second,
		Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 133 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	const window, maxCV = 15, 0.3
	altered, ok := cmp.Altered.Throughput.StabilizationTime(133*time.Second, window, maxCV)
	if !ok {
		t.Fatal("altered run never restabilized")
	}
	baseline, ok := cmp.Baseline.Throughput.StabilizationTime(133*time.Second, window, maxCV)
	if !ok {
		t.Fatal("baseline unstable")
	}
	if baseline != 0 {
		t.Fatalf("baseline stabilization = %v, want immediate", baseline)
	}
	if altered < 20*time.Second || altered > 150*time.Second {
		t.Fatalf("oscillation damped after %v; paper reports ~82s", altered)
	}
}
