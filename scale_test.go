package stabl

import (
	"fmt"
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

// TestBuildScalesLinearly: Build+Start allocates bytes linear in what the
// deployment holds. The bytes at n = 1,024 and 2,048 fix a line through
// both — a fixed cost plus bytes per node on the mesh; bytes per node plus
// bytes per adjacency entry on kadcast, whose degree grows as
// O(BucketK·log n), counted from overlay.New's graph of the same deployment
// — and the bytes at n = 4,096 may exceed that line's prediction by at most
// 4 %. A per-node table regrown (and copied) once per node, a kadcast view
// found by scanning every member, or one byte per pair of nodes makes them
// outrun it. Not parallel: TotalAlloc counts every goroutine's allocations.
func TestBuildScalesLinearly(t *testing.T) {
	for _, topology := range []string{"", "kadcast"} {
		// bytes[i] = a·x[i] + b·y[i]
		var bytes, x, y [3]float64
		for i, n := range []int{1024, 2048, 4096} {
			cfg := scaleDeployment(n, topology)
			x[i], y[i] = 1, float64(n)
			if topology != "" {
				ids := make([]simnet.NodeID, n)
				for id := range ids {
					ids[id] = simnet.NodeID(id)
				}
				topo, err := overlay.New(cfg.Overlay, cfg.Seed, ids)
				if err != nil {
					t.Fatal(err)
				}
				x[i], y[i] = float64(n), 0
				for _, id := range ids {
					y[i] += float64(len(topo.Neighbors(id)))
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
			bytes[i] = float64(after.TotalAlloc - before.TotalAlloc)
		}
		det := x[0]*y[1] - x[1]*y[0]
		a := (bytes[0]*y[1] - bytes[1]*y[0]) / det
		b := (x[0]*bytes[1] - x[1]*bytes[0]) / det
		want := a*x[2] + b*y[2]
		msg := fmt.Sprintf("overlay %q: Build+Start allocated %.2f, %.2f and %.2f MB at n = 1,024, 2,048 and 4,096; the line through the first two predicts %.2f MB, ×%.3f",
			topology, bytes[0]/1e6, bytes[1]/1e6, bytes[2]/1e6, want/1e6, bytes[2]/want)
		if bytes[2] > 1.04*want {
			t.Error(msg + " (limit ×1.04)")
		} else {
			t.Log(msg)
		}
	}
}
