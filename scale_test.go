package stabl

import (
	"runtime"
	"testing"
	"time"

	"stabl/internal/core"
	"stabl/internal/overlay"
	"stabl/internal/simnet"
)

// TestScaleLargerNetwork addresses the paper's future work: "measure the
// sensitivity of blockchains in larger networks, especially for
// probabilistic consensus protocols that rely on the law of large numbers."
// Every chain model must stay live and commit the workload on a 20-validator
// deployment with 10 clients.
func TestScaleLargerNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			res, err := Run(Config{
				System:        sys,
				Seed:          42,
				Validators:    20,
				Clients:       10,
				RatePerClient: 20, // 200 TPS total, as in the paper
				Duration:      120 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.LivenessLost {
				t.Fatalf("baseline lost liveness at n=20; last commit %v", res.LastCommitAt)
			}
			if res.UniqueCommits < res.Submitted*80/100 {
				t.Fatalf("commits = %d of %d at n=20", res.UniqueCommits, res.Submitted)
			}
		})
	}
}

// TestScaleCrashToleranceGrowsWithN: at n = 20 the tolerated crash counts
// double (t = 3 for the n/5 chains, 6 for the n/3 chains) and an f = t crash
// still leaves every chain live.
func TestScaleCrashToleranceGrowsWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("scale crash test skipped in -short mode")
	}
	for _, sys := range []System{NewRedbelly(), NewAvalanche()} {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			if n20, n10 := sys.Tolerance(20), sys.Tolerance(10); n20 <= n10 {
				t.Fatalf("tolerance did not grow: t(20)=%d t(10)=%d", n20, n10)
			}
			res, err := Run(Config{
				System:        sys,
				Seed:          42,
				Validators:    20,
				Clients:       10,
				RatePerClient: 20,
				Duration:      180 * time.Second,
				Fault:         FaultPlan{Kind: FaultCrash, InjectAt: 60 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.LivenessLost {
				t.Fatalf("f=t crash killed %s at n=20; last commit %v", sys.Name(), res.LastCommitAt)
			}
		})
	}
}

// scaleDeployment is the benchmark's scale deployment at n validators:
// committee-mode Algorand with 1,024 clients folded into 8 flows of 256
// accounts, connection layer off, over the given overlay ("" for the mesh).
func scaleDeployment(n int, topology string) Config {
	return Config{
		System:           NewAlgorand(),
		Seed:             42,
		Validators:       n,
		Clients:          1024,
		Flows:            8,
		FlowAccounts:     256,
		RatePerClient:    0.05,
		CommitteeSize:    64,
		Duration:         30 * time.Second,
		DisableConnLayer: true,
		Overlay:          OverlayConfig{Topology: topology},
	}
}

// TestBuildScalesLinearly: deploying four times the validators allocates at
// most 4.5 times the bytes on the mesh. A kadcast node's degree grows as
// O(BucketK·log n), so there the allocation may grow at most 4.5/4 times as
// fast as what the topology holds: nodes plus adjacency entries, counted from
// overlay.New's graph of the same deployment. A per-node table regrown (and
// copied) once per node, or a kadcast view found by scanning every member,
// makes the ratio climb with n. Not parallel: TotalAlloc counts every
// goroutine's allocations.
func TestBuildScalesLinearly(t *testing.T) {
	for _, topology := range []string{"", "kadcast"} {
		var bytes, units [2]uint64
		for i, n := range []int{1024, 4096} {
			cfg := scaleDeployment(n, topology)
			units[i] = uint64(n)
			if topology != "" {
				ids := make([]simnet.NodeID, n)
				for id := range ids {
					ids[id] = simnet.NodeID(id)
				}
				topo, err := overlay.New(cfg.Overlay, cfg.Seed, ids)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					units[i] += uint64(len(topo.Neighbors(id)))
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, err := core.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			runtime.ReadMemStats(&after)
			bytes[i] = after.TotalAlloc - before.TotalAlloc
		}
		growth := float64(units[1]) / float64(units[0])
		if ratio := float64(bytes[1]) / float64(bytes[0]); ratio > 4.5*growth/4 {
			t.Errorf("overlay %q: Build+Start allocated %.1f MB at n=1,024 and %.1f MB at n=4,096, ×%.2f against ×%.2f nodes and adjacency (limit ×%.2f)",
				topology, float64(bytes[0])/1e6, float64(bytes[1])/1e6, ratio, growth, 4.5*growth/4)
		} else {
			t.Logf("overlay %q: %.1f MB → %.1f MB, ×%.2f against ×%.2f nodes and adjacency", topology, float64(bytes[0])/1e6, float64(bytes[1])/1e6, ratio, growth)
		}
	}
}
