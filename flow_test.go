package stabl

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestFlowMatchesPerClientWorkload pins the flow-aggregation equivalence
// contract: however n clients are cut into flows, the same transaction ids
// reach the same endpoints at the same instants, so the chain-side commit
// stream and the client-observed latency multiset must be identical.
// Flows: 0 — the reference here — deploys n single-member flows, one node
// per client; the seed-42 goldens, captured from the per-client load client
// this one replaced, pin that deployment to its behaviour. The second
// variant puts the retry scan and the secure client's t+1 fan-out on the
// compared path, under a transient fault that leaves submissions
// unconfirmed past RetryAfter. Scheduler event counts are NOT compared —
// one ticker replaces n tickers, which is exactly the point.
func TestFlowMatchesPerClientWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("flow equivalence skipped in -short mode")
	}
	base := Config{
		System:        NewRedbelly(),
		Seed:          42,
		Validators:    10,
		Clients:       5,
		RatePerClient: 20,
		RetryAfter:    5 * time.Second,
		Duration:      60 * time.Second,
	}
	secure := base
	secure.Fanout = 4
	secure.RetryAfter = 2 * time.Second
	secure.Fault = FaultPlan{Kind: FaultTransient, InjectAt: 20 * time.Second, RecoverAt: 40 * time.Second}
	for _, variant := range []struct {
		name string
		cfg  Config
	}{
		{"default", base},
		{"secure+retries+transient", secure},
	} {
		t.Run(variant.name, func(t *testing.T) {
			perClient, err := Run(variant.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedCopy(perClient.Latencies)
			for _, flows := range []int{1, 2} {
				cfg := variant.cfg
				cfg.Flows = flows
				flow, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if flow.Submitted != perClient.Submitted {
					t.Errorf("flows=%d: submitted = %d, per-client %d", flows, flow.Submitted, perClient.Submitted)
				}
				if flow.UniqueCommits != perClient.UniqueCommits {
					t.Errorf("flows=%d: commits = %d, per-client %d", flows, flow.UniqueCommits, perClient.UniqueCommits)
				}
				if flow.Pending != perClient.Pending {
					t.Errorf("flows=%d: pending = %d, per-client %d", flows, flow.Pending, perClient.Pending)
				}
				if flow.LastCommitAt != perClient.LastCommitAt {
					t.Errorf("flows=%d: last commit = %v, per-client %v", flows, flow.LastCommitAt, perClient.LastCommitAt)
				}
				if flow.NetStats != perClient.NetStats {
					t.Errorf("flows=%d: network counters = %+v, per-client %+v", flows, flow.NetStats, perClient.NetStats)
				}
				if !reflect.DeepEqual(flow.Throughput, perClient.Throughput) {
					t.Errorf("flows=%d: chain-side throughput series diverged", flows)
				}
				// Latency collection order differs (per-flow concatenation of
				// completion-ordered lists); the multiset must match exactly.
				if got := sortedCopy(flow.Latencies); !reflect.DeepEqual(got, want) {
					t.Errorf("flows=%d: latency multisets diverged: %d vs %d samples", flows, len(got), len(want))
				}
			}
		})
	}
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// TestFlowEquivalenceAcrossSystems repeats the equivalence check on every
// chain model with a shorter horizon: the contract is workload-side and must
// hold regardless of the consensus protocol behind the endpoints.
func TestFlowEquivalenceAcrossSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-system flow equivalence skipped in -short mode")
	}
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			base := Config{
				System:        sys,
				Seed:          7,
				Validators:    10,
				Clients:       4,
				RatePerClient: 10,
				Duration:      30 * time.Second,
			}
			perClient, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			flowCfg := base
			flowCfg.Flows = 1
			flow, err := Run(flowCfg)
			if err != nil {
				t.Fatal(err)
			}
			if flow.Submitted != perClient.Submitted || flow.UniqueCommits != perClient.UniqueCommits {
				t.Fatalf("flow run = %d submitted / %d commits, per-client %d / %d",
					flow.Submitted, flow.UniqueCommits, perClient.Submitted, perClient.UniqueCommits)
			}
			if !reflect.DeepEqual(flow.Throughput, perClient.Throughput) {
				t.Fatalf("chain-side throughput series diverged")
			}
		})
	}
}

// TestFlowTenThousandClients runs 10k modeled clients through 20 flow
// generators — a deployment the per-client loop would spend most of its time
// scheduling. The aggregated workload must stay live and commit what it
// submits.
func TestFlowTenThousandClients(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-client flow run skipped in -short mode")
	}
	res, err := Run(Config{
		System:        NewRedbelly(),
		Seed:          42,
		Validators:    20,
		Clients:       10_000,
		Flows:         20,
		FlowAccounts:  128,
		RatePerClient: 0.2,
		Duration:      30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted < 10_000 {
		t.Fatalf("submitted only %d txs from 10k clients", res.Submitted)
	}
	if res.UniqueCommits < res.Submitted*9/10 {
		t.Fatalf("commits = %d of %d", res.UniqueCommits, res.Submitted)
	}
}

// TestMillionClientsIsAConfigValue demonstrates the scale axis headline:
// one million modeled clients deploy as eight flow nodes, so construction
// and the idle event loop cost O(flows), not O(clients). The run is sized so
// no tick fires inside the horizon — the assertion is that building and
// simulating the deployment is cheap, not that a million-transaction burst
// clears.
func TestMillionClientsIsAConfigValue(t *testing.T) {
	if testing.Short() {
		t.Skip("million-client construction skipped in -short mode")
	}
	start := time.Now()
	res, err := Run(Config{
		System:           NewRedbelly(),
		Seed:             7,
		Validators:       20,
		Clients:          1_000_000,
		Flows:            8,
		FlowAccounts:     64,
		RatePerClient:    0.001, // tick interval 1000s: no burst inside the horizon
		Duration:         15 * time.Second,
		DisableConnLayer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 0 {
		t.Fatalf("expected an idle horizon, got %d submissions", res.Submitted)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("million-client deployment took %v to build and run", elapsed)
	}
}
