package redbelly

import (
	"fmt"
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/metrics"
	"stabl/internal/simnet"
)

func shortCfg(fault core.FaultPlan) core.Config {
	return core.Config{
		System:   Default(),
		Seed:     1,
		Duration: 90 * time.Second,
		Fault:    fault,
	}
}

func TestTolerance(t *testing.T) {
	s := Default()
	if got := s.Tolerance(10); got != 3 {
		t.Fatalf("Tolerance(10) = %d, want 3", got)
	}
	if got := s.Tolerance(4); got != 1 {
		t.Fatalf("Tolerance(4) = %d, want 1", got)
	}
}

func TestBaselineCommitsWorkload(t *testing.T) {
	res, err := core.Run(shortCfg(core.FaultPlan{Kind: core.FaultNone}))
	if err != nil {
		t.Fatal(err)
	}
	if res.LivenessLost {
		t.Fatalf("baseline lost liveness; last commit %v", res.LastCommitAt)
	}
	// 200 TPS for 90 s = ~18000 txs; nearly all should commit.
	if res.UniqueCommits < res.Submitted*95/100 {
		t.Fatalf("commits = %d of %d submitted", res.UniqueCommits, res.Submitted)
	}
	if len(res.Latencies) == 0 {
		t.Fatal("no client latencies")
	}
	var sum float64
	for _, l := range res.Latencies {
		sum += l
	}
	mean := sum / float64(len(res.Latencies))
	if mean > 3 {
		t.Fatalf("mean latency %.2fs too high for leaderless fast path", mean)
	}
}

func TestCrashOfTToleratedWithoutStall(t *testing.T) {
	res, err := core.Run(shortCfg(core.FaultPlan{
		Kind:     core.FaultCrash,
		InjectAt: 30 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.LivenessLost {
		t.Fatal("crash of f=t nodes killed liveness")
	}
	// Throughput after the crash stays close to before.
	before := res.Throughput.MeanRate(10*time.Second, 30*time.Second)
	after := res.Throughput.MeanRate(45*time.Second, 85*time.Second)
	if after < 0.85*before {
		t.Fatalf("crash degraded throughput: before=%.1f after=%.1f", before, after)
	}
}

func TestTransientStallAndRecovery(t *testing.T) {
	cfg := shortCfg(core.FaultPlan{
		Kind:      core.FaultTransient,
		InjectAt:  30 * time.Second,
		RecoverAt: 55 * time.Second,
	})
	cfg.Duration = 120 * time.Second
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// f = t+1 halts consensus during the outage.
	during := res.Throughput.MeanRate(40*time.Second, 55*time.Second)
	if during > 20 {
		t.Fatalf("throughput %v during f>t outage, want near-stall", during)
	}
	if res.LivenessLost {
		t.Fatalf("no recovery after reboot; last commit %v", res.LastCommitAt)
	}
	// Back to full speed reasonably quickly (paper: ~7 s).
	ref := res.Throughput.MeanRate(10*time.Second, 30*time.Second)
	delay, ok := res.Throughput.RecoveryTime(55*time.Second, ref, 0.7, 5)
	if !ok {
		t.Fatal("recovery not detected")
	}
	if delay > 25*time.Second {
		t.Fatalf("recovery took %v, want fast active recovery", delay)
	}
}

func TestPartitionRecoveryTimerBound(t *testing.T) {
	cfg := core.Config{
		System:   Default(),
		Seed:     3,
		Duration: 400 * time.Second,
		Fault: core.FaultPlan{
			Kind:      core.FaultPartition,
			InjectAt:  133 * time.Second,
			RecoverAt: 266 * time.Second,
		},
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LivenessLost {
		t.Fatalf("no recovery after partition heal; last commit %v", res.LastCommitAt)
	}
	ref := res.Throughput.MeanRate(60*time.Second, 133*time.Second)
	delay, ok := res.Throughput.RecoveryTime(266*time.Second, ref, 0.7, 5)
	if !ok {
		t.Fatal("partition recovery not detected")
	}
	// Paper: 81 s, dominated by MaxIdleTime reconnect backoff. Accept a
	// broad band around it but insist it is slower than transient
	// recovery and bounded.
	if delay < 20*time.Second || delay > 120*time.Second {
		t.Fatalf("partition recovery = %v, want timer-bound tens of seconds", delay)
	}
}

func TestSuperblockUnionDeduplicates(t *testing.T) {
	v, ok := Default().NewValidator(0, []simnet.NodeID{0, 1, 2, 3}, chain.NewMonitor(), nil).(*validator)
	if !ok {
		t.Fatal("NewValidator type")
	}
	st := newRoundState(0, 0, v.n, v.quorum)
	tx := chain.Tx{ID: chain.MakeTxID(0, 1)}
	st.proposals[0] = []chain.Tx{tx}
	st.proposals[1] = []chain.Tx{tx} // same tx proposed twice (secure client)
	st.proposals[2] = []chain.Tx{{ID: chain.MakeTxID(0, 2)}}
	// assemble needs a ctx for timestamps, so drive the merge it runs. Twice:
	// the second merge fails if the first left a first-sight mark behind.
	for pass := 0; pass < 2; pass++ {
		txs := v.base.Merge([][]chain.Tx{st.proposals[0], st.proposals[1], st.proposals[2]})
		if len(txs) != 2 || txs[0].ID != tx.ID || txs[1].ID != chain.MakeTxID(0, 2) {
			t.Fatalf("pass %d: superblock union = %v, want tx0.1 then tx0.2", pass, txs)
		}
	}
}

func TestEstKeyDeterministic(t *testing.T) {
	a := estKey([]simnet.NodeID{1, 2, 3})
	b := estKey([]simnet.NodeID{1, 2, 3})
	c := estKey([]simnet.NodeID{1, 2})
	if a != b || a == c {
		t.Fatalf("estKey: %q %q %q", a, b, c)
	}
	// The bytes are behaviour: majorityEst breaks ties by comparing keys.
	for _, est := range [][]simnet.NodeID{nil, {0}, {1, 2, 3}, {9, 10, 2047}, {-1, 123456789}} {
		want := ""
		for _, id := range est {
			want += fmt.Sprintf("%d,", int(id))
		}
		if got := estKey(est); got != want {
			t.Fatalf("estKey(%v) = %q, want %q", est, got, want)
		}
	}
}

func TestSortIDs(t *testing.T) {
	ids := []simnet.NodeID{3, 1, 2}
	sortIDs(ids)
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("sortIDs = %v", ids)
	}
}

// recordingSystem keeps every validator the deployment builds.
type recordingSystem struct {
	*System
	validators []*validator
}

func (s *recordingSystem) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis *chain.Genesis) chain.Validator {
	v := s.System.NewValidator(id, peers, mon, genesis)
	s.validators = append(s.validators, v.(*validator))
	return v
}

// TestFaultFreeRoundsStayFinished runs ten validators fault-free for 400 s:
// a decided round is dropped for good, so each validator ends holding the
// last few rounds' books, and no round's timer fires after its decision.
func TestFaultFreeRoundsStayFinished(t *testing.T) {
	sys := &recordingSystem{System: Default()}
	rec := metrics.NewRecorder(0)
	res, err := core.Run(core.Config{System: sys, Seed: 42, Duration: 400 * time.Second, Metrics: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.validators) != 10 || res.MaxHeight < 1000 {
		t.Fatalf("%d validators reached height %d", len(sys.validators), res.MaxHeight)
	}
	for _, v := range sys.validators {
		if len(v.states) > 3 {
			t.Errorf("validator %d holds %d rounds", v.base.ID, len(v.states))
		}
	}
	if n := timeouts(rec); n != 0 {
		t.Errorf("%d timeouts in a fault-free run", n)
	}
}
