package redbelly

import (
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

func unitValidator(t *testing.T, n int) *validator {
	t.Helper()
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	v, ok := Default().NewValidator(0, peers, chain.NewMonitor(), nil).(*validator)
	if !ok {
		t.Fatal("unexpected validator type")
	}
	return v
}

func TestQuorumIsNMinusT(t *testing.T) {
	v := unitValidator(t, 10)
	if v.t != 3 || v.quorum != 7 {
		t.Fatalf("t=%d quorum=%d", v.t, v.quorum)
	}
}

func TestCoordinatorRotatesWithRoundAndSubround(t *testing.T) {
	v := unitValidator(t, 4)
	if v.coordinator(0, 0) != 0 || v.coordinator(0, 1) != 1 {
		t.Fatal("sub-round does not move the coordinator")
	}
	if v.coordinator(1, 0) != 1 {
		t.Fatal("round does not move the coordinator")
	}
	if v.coordinator(3, 2) != 1 { // (3+2) mod 4
		t.Fatalf("coordinator(3,2) = %v", v.coordinator(3, 2))
	}
}

func TestMajorityEstPrefersMajority(t *testing.T) {
	v := unitValidator(t, 4)
	v.states = map[int]*roundState{}
	st := newRoundState(0, 0, v.n, v.quorum)
	v.states[0] = st
	estA := []simnet.NodeID{0, 1}
	estB := []simnet.NodeID{0, 1, 2}
	st.votes.Add(0, 0, 1, estKey(estA))
	st.votes.Add(0, 0, 2, estKey(estA))
	st.votes.Add(0, 0, 3, estKey(estB))
	st.ests[estKey(estA)] = estA
	st.ests[estKey(estB)] = estB
	got := v.majorityEst(0, 0)
	if estKey(got) != estKey(estA) {
		t.Fatalf("majorityEst = %v, want majority %v", got, estA)
	}
}

func TestMajorityEstTieFallsBackToUnion(t *testing.T) {
	v := unitValidator(t, 4)
	v.states = map[int]*roundState{}
	st := newRoundState(0, 0, v.n, v.quorum)
	v.states[0] = st
	estA := []simnet.NodeID{0, 1}
	estB := []simnet.NodeID{2, 3}
	st.votes.Add(0, 0, 1, estKey(estA))
	st.votes.Add(0, 0, 2, estKey(estB))
	st.ests[estKey(estA)] = estA
	st.ests[estKey(estB)] = estB
	got := v.majorityEst(0, 0)
	if len(got) != 4 {
		t.Fatalf("tie union = %v, want all four proposers", got)
	}
}

func TestSuperblockAblationCommitsOnlyOneProposal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Superblock = false
	res, err := core.Run(core.Config{
		System:   NewSystem(cfg),
		Seed:     9,
		Duration: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One proposal per round at ~4 rounds/s and <=500 txs per proposal:
	// with 5 client-facing proposers only ~1/5 of the offered load can
	// commit each round; far fewer unique commits than with superblocks.
	full, err := core.Run(core.Config{
		System:   Default(),
		Seed:     9,
		Duration: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueCommits*2 > full.UniqueCommits {
		t.Fatalf("single-proposal commits %d vs superblock %d; ablation too weak",
			res.UniqueCommits, full.UniqueCommits)
	}
}

func TestDecideWaitsForMissingProposalContent(t *testing.T) {
	// A validator that agreed on an est containing a proposal it has not
	// received must not decide until the content arrives.
	sched, net, v := singleValidatorHarness(t)
	_ = net
	st := v.state(0)
	est := []simnet.NodeID{0, 1}
	st.proposals[0] = []chain.Tx{}
	v.decide(0, est) // proposal from 1 missing
	if st.decided {
		t.Fatal("decided without proposal content")
	}
	if st.pendingDecide == nil {
		t.Fatal("pending decision not parked")
	}
	v.onProposal(1, proposalMsg{Round: 0, Proposer: 1, Txs: nil})
	if !st.decided {
		t.Fatal("arrival of missing proposal did not complete the decision")
	}
	sched.RunUntil(time.Second)
	if v.base.Ledger.Height() != 1 {
		t.Fatalf("height = %d", v.base.Ledger.Height())
	}
}

// TestCaughtUpReentryProposesOnce re-enters a started round through
// OnCaughtUp, the path a catch-up takes back into consensus: the round keeps
// its first proposal, and the pool, the recorded batch and the network see no
// second one.
func TestCaughtUpReentryProposesOnce(t *testing.T) {
	sched, net, v := singleValidatorHarness(t)
	for i := uint32(0); i < 800; i++ {
		v.base.Pool.Add(chain.Tx{ID: chain.MakeTxID(0, i), From: chain.Address(i), To: 1, Amount: 1})
	}
	jitter := v.cfg.ProposalJitter
	sched.RunUntil(jitter) // round 0's proposal fires within the jitter bound
	first, ok := v.state(0).proposals[v.base.ID]
	if !ok {
		t.Fatal("round 0 has no own proposal")
	}
	pooled, sent := v.base.Pool.Len(), net.Stats().Sent

	v.base.OnCaughtUp()
	sched.RunUntil(2 * jitter) // past the re-entry's proposal instant, before the proposal timeout
	if got := v.base.Pool.Len(); got != pooled {
		t.Fatalf("re-entry popped %d more transactions", pooled-got)
	}
	if got := v.state(0).proposals[v.base.ID]; len(got) != len(first) || (len(got) > 0 && got[0].ID != first[0].ID) {
		t.Fatalf("re-entry replaced the recorded proposal: %d txs, first had %d", len(got), len(first))
	}
	if got := net.Stats().Sent; got != sent {
		t.Fatalf("re-entry sent %d messages", got-sent)
	}
}

// singleValidatorHarness boots one Redbelly validator next to a silent peer,
// giving unit tests a live context without a full deployment.
func singleValidatorHarness(t *testing.T) (*sim.Scheduler, *simnet.Network, *validator) {
	t.Helper()
	sched := sim.New(3)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(time.Millisecond)})
	v, ok := Default().NewValidator(0, []simnet.NodeID{0, 1}, chain.NewMonitor(), nil).(*validator)
	if !ok {
		t.Fatal("unexpected type")
	}
	net.AddNode(0, v)
	net.AddNode(1, &nopPeer{})
	net.StartAll()
	return sched, net, v
}

type nopPeer struct{}

func (nopPeer) Start(*simnet.Context)      {}
func (nopPeer) Stop()                      {}
func (nopPeer) Deliver(simnet.NodeID, any) {}
