package stabl

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Figs 1 and 3-7) at the paper's deployment scale: 10
// validators, 5 clients at 40 tx/s (200 TPS total), 400 virtual seconds,
// faults injected at 133 s on the nodes without clients and recovered at
// 266 s. Each benchmark reports the figure's headline numbers as metrics:
// sensitivity scores ("score_<system>", with -1 standing for an infinite
// score), recovery delays, and the simulator's event throughput.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Absolute metric values are compared against the paper in EXPERIMENTS.md.

import (
	"fmt"
	"testing"
	"time"

	"stabl/internal/algorand"
	"stabl/internal/avalanche"
	"stabl/internal/core"
	"stabl/internal/redbelly"
)

// paperCfg is the deployment every figure benchmark uses. Under -short
// (the `make bench-smoke` race-enabled job) runs shrink to 120 virtual
// seconds with the fault window scaled along (40 s to 80 s) — the paper's
// 133 s injection would never fire — so one iteration of every figure still
// crosses its fault and fits in a smoke budget.
func paperCfg(seed int64) Config {
	if testing.Short() {
		return Config{Seed: seed, Duration: 120 * time.Second,
			Fault: FaultPlan{InjectAt: 40 * time.Second, RecoverAt: 80 * time.Second}}
	}
	return Config{Seed: seed, Duration: 400 * time.Second}
}

// reportScores publishes one metric per system for a Fig 3 panel.
func reportScores(b *testing.B, cmps []*Comparison) {
	b.Helper()
	for _, cmp := range cmps {
		v := cmp.Score.Value
		if cmp.Score.Infinite {
			v = -1
		}
		b.ReportMetric(v, "score_"+cmp.System)
	}
}

// BenchmarkFig1AptosECDF regenerates Fig 1: the baseline and altered latency
// eCDFs of Aptos under f = t crashes, whose area difference is the
// sensitivity score.
func BenchmarkFig1AptosECDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := Fig1(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Score.Value, "score_Aptos")
		b.ReportMetric(float64(len(fig.Baseline)), "curve_points")
	}
}

// BenchmarkFig3aCrashSensitivity regenerates Fig 3a: sensitivity of the five
// chains to f = t permanent crashes.
func BenchmarkFig3aCrashSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := Fig3a(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		reportScores(b, cmps)
	}
}

// BenchmarkFig3bTransientSensitivity regenerates Fig 3b: sensitivity to
// f = t+1 transient node failures (Avalanche and Solana score infinite,
// reported as -1).
func BenchmarkFig3bTransientSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := Fig3b(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		reportScores(b, cmps)
	}
}

// BenchmarkFig3cPartitionSensitivity regenerates Fig 3c: sensitivity to a
// transient partition of f = t+1 nodes.
func BenchmarkFig3cPartitionSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := Fig3c(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		reportScores(b, cmps)
	}
}

// BenchmarkFig3dByzantineSensitivity regenerates Fig 3d: sensitivity to the
// secure client that submits to t+1 validators (redundancy benefits are
// reported with their magnitude; see the figure runners for the sign).
func BenchmarkFig3dByzantineSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := Fig3d(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		reportScores(b, cmps)
	}
}

// BenchmarkFig4CrashThroughput regenerates Fig 4: throughput over time as
// f = t nodes crash at 133 s. It reports each chain's post-crash steady
// throughput as a fraction of its pre-crash throughput.
func BenchmarkFig4CrashThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := Fig4(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		for _, cmp := range cmps {
			before := cmp.Altered.Throughput.MeanRate(60*time.Second, 133*time.Second)
			after := cmp.Altered.Throughput.MeanRate(200*time.Second, 395*time.Second)
			ratio := 0.0
			if before > 0 {
				ratio = after / before
			}
			b.ReportMetric(ratio, "postcrash_ratio_"+cmp.System)
		}
	}
}

// BenchmarkFig5TransientThroughput regenerates Fig 5: throughput over time
// as f = t+1 nodes stop at 133 s and restart at 266 s. It reports each
// chain's recovery delay in seconds (-1 when it never recovers).
func BenchmarkFig5TransientThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := Fig5(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range RecoveryTimes(cmps) {
			v := -1.0
			if r.Recovered {
				v = r.Delay.Seconds()
			}
			b.ReportMetric(v, "recovery_s_"+r.System)
		}
	}
}

// BenchmarkFig6PartitionThroughput regenerates Fig 6: throughput over time
// under a partition from 133 s to 266 s, reporting recovery delays.
func BenchmarkFig6PartitionThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := Fig6(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range RecoveryTimes(cmps) {
			v := -1.0
			if r.Recovered {
				v = r.Delay.Seconds()
			}
			b.ReportMetric(v, "recovery_s_"+r.System)
		}
	}
}

// BenchmarkFig7Radar regenerates the full Fig 7 matrix (20 comparisons, 40
// runs) and reports the number of infinite cells — the paper's headline:
// exactly four (Avalanche and Solana under transient failures and
// partitions).
func BenchmarkFig7Radar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		radar, err := Fig7(paperCfg(42))
		if err != nil {
			b.Fatal(err)
		}
		infinite := 0
		for _, row := range radar.Cells {
			for _, cmp := range row {
				if cmp.Score.Infinite {
					infinite++
				}
			}
		}
		b.ReportMetric(float64(infinite), "infinite_cells")
	}
}

// Ablation benches isolate the design choices DESIGN.md calls out.

// BenchmarkAblationAvalancheThrottling compares Avalanche's recoverability
// from a transient failure with and without the inbound message throttler —
// the paper's root cause for its lack of liveness (§5). The metric is 1 when
// the chain recovered, 0 when it lost liveness.
func BenchmarkAblationAvalancheThrottling(b *testing.B) {
	for _, mode := range []struct {
		name       string
		throttling bool
	}{{"Throttled", true}, {"Unthrottled", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := avalanche.DefaultConfig()
			cfg.Throttling = mode.throttling
			for i := 0; i < b.N; i++ {
				run := paperCfg(42)
				run.System = avalanche.NewSystem(cfg)
				run.Fault.Kind = FaultTransient
				res, err := Run(run)
				if err != nil {
					b.Fatal(err)
				}
				recovered := 1.0
				if res.LivenessLost {
					recovered = 0
				}
				b.ReportMetric(recovered, "recovered")
				b.ReportMetric(float64(res.UniqueCommits), "commits")
			}
		})
	}
}

// BenchmarkAblationRedbellySuperblock compares Redbelly's baseline
// throughput and latency with the superblock union enabled (every
// validator's proposal commits) versus a single proposal per round.
func BenchmarkAblationRedbellySuperblock(b *testing.B) {
	for _, mode := range []struct {
		name       string
		superblock bool
	}{{"Superblock", true}, {"SingleProposal", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := redbelly.DefaultConfig()
			cfg.Superblock = mode.superblock
			for i := 0; i < b.N; i++ {
				run := Config{Seed: 42, Duration: 120 * time.Second}
				run.System = redbelly.NewSystem(cfg)
				res, err := Run(run)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.UniqueCommits), "commits")
				b.ReportMetric(res.Throughput.MeanRate(30*time.Second, 115*time.Second), "tps")
			}
		})
	}
}

// BenchmarkAblationAlgorandDynamicRound compares Algorand's dynamic round
// time against fixed conservative timeouts: the adaptation is what produces
// the baseline ramp-up and the crash-induced resets (§4).
func BenchmarkAblationAlgorandDynamicRound(b *testing.B) {
	for _, mode := range []struct {
		name    string
		dynamic bool
	}{{"Dynamic", true}, {"Fixed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := algorand.DefaultConfig()
			if !mode.dynamic {
				cfg.Shrink = 1 // never adapt: stay at the default timeout
				cfg.MinFilterTimeout = cfg.DefaultFilterTimeout
			}
			for i := 0; i < b.N; i++ {
				run := Config{Seed: 42, Duration: 300 * time.Second}
				run.System = algorand.NewSystem(cfg)
				res, err := Run(run)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, l := range res.Latencies {
					sum += l
				}
				mean := 0.0
				if len(res.Latencies) > 0 {
					mean = sum / float64(len(res.Latencies))
				}
				b.ReportMetric(mean, "mean_latency_s")
			}
		})
	}
}

// BenchmarkSimulatorEventRate measures the raw discrete-event engine
// throughput on a full Redbelly baseline, in simulated events per second of
// wall-clock time.
func BenchmarkSimulatorEventRate(b *testing.B) {
	var events uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run := Config{Seed: int64(i), Duration: 120 * time.Second, System: NewRedbelly()}
		res, err := Run(run)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed, "events/s")
	}
}

// BenchmarkCoreSensitivity measures the cost of one full baseline+altered
// comparison, the unit of work behind every figure.
func BenchmarkCoreSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.Compare(core.Config{
			System:   NewRedbelly(),
			Seed:     42,
			Duration: 120 * time.Second,
			Fault:    core.FaultPlan{Kind: core.FaultCrash, InjectAt: 40 * time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures deploying the scale deployment — network, ledgers
// at genesis, overlay — at n = 2,048 and, outside -short, at the ROADMAP's
// large-cell size of 10,240, on the mesh and on kadcast.
func BenchmarkBuild(b *testing.B) {
	for _, topo := range []struct{ name, kind string }{{"mesh", ""}, {"kadcast", "kadcast"}} {
		for _, n := range []int{2048, 10240} {
			b.Run(fmt.Sprintf("%s/n=%d", topo.name, n), func(b *testing.B) {
				if n > 2048 && testing.Short() {
					b.Skip("n = 10,240 skipped in -short mode")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Build(scaleDeployment(n, topo.kind)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
