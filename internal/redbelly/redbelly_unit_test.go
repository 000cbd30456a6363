package redbelly

import (
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/metrics"
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

// TestRestartPathFollowsRound restarts a validator with an empty ledger: one
// that never left round 0 starts it again, one that had moved on rejoins by
// catching up, like a validator that has blocks.
func TestRestartPathFollowsRound(t *testing.T) {
	for _, round := range []int{0, 3} {
		_, net, v := singleValidatorHarness(t)
		v.round = round
		net.Halt(0)
		net.Restart(0)
		catchUp := round > 0
		if _, started := v.states[0]; v.base.CatchingUp() != catchUp || started == catchUp {
			t.Errorf("round %d: catching up %v, round 0 started %v; want catching up %v", round, v.base.CatchingUp(), started, catchUp)
		}
	}
}

// commitBlock puts an empty block at the ledger's next height, as a catch-up
// does, and runs the scheduler until it is applied.
func commitBlock(t *testing.T, sched *sim.Scheduler, v *validator) chain.Block {
	t.Helper()
	h := v.base.Ledger.Height()
	b := v.base.MergeBlock(chain.Block{Height: h, Proposer: v.base.ID, Parent: v.base.TipHash(), DecidedAt: sched.Now()}, nil)
	v.base.SubmitBlock(b)
	sched.RunUntil(sched.Now() + time.Millisecond)
	if v.base.Ledger.Height() != h+1 {
		t.Fatalf("block %d not applied: height %d", h, v.base.Ledger.Height())
	}
	return b
}

func timeouts(rec *metrics.Recorder) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == metrics.EventTimeout {
			n++
		}
	}
	return n
}

// TestCommittedRoundStaysFinished commits round 0 after its proposal, its
// vote and a mixed sub-round 0 armed its ProposalTimeout and CoordTimeout,
// and drops its books as advance drops a round two behind: neither timer nor
// a late decide or coordinator hint re-creates the round, records a timeout
// or sends anything.
func TestCommittedRoundStaysFinished(t *testing.T) {
	sched, net, v := singleValidatorHarness(t)
	rec := metrics.NewRecorder(0)
	v.base.Monitor.SetMetrics(rec)
	sched.RunUntil(v.cfg.ProposalJitter)
	v.estimate(0)
	v.onVote(voteMsg{Round: 0, Sub: 0, Voter: 1, Est: []simnet.NodeID{1}})
	if v.state(0).sub != 1 {
		t.Fatal("mixed sub-round 0 armed no coordinator timeout")
	}
	b := commitBlock(t, sched, v)
	delete(v.states, 0)
	sent := net.Stats().Sent

	sched.RunUntil(v.cfg.ProposalTimeout + time.Millisecond)
	v.Deliver(1, decideMsg{Round: 0, Block: b})
	v.Deliver(1, coordMsg{Round: 0, Sub: 1, Est: []simnet.NodeID{0, 1}})
	if _, ok := v.states[0]; ok {
		t.Fatal("committed round 0 re-created")
	}
	if got := net.Stats().Sent; got != sent {
		t.Fatalf("committed round 0 sent %d messages", got-sent)
	}
	if n := timeouts(rec); n != 0 {
		t.Fatalf("committed round 0 recorded %d timeouts", n)
	}
}

// TestLateDecideAdvancesLaggingRound gives a validator in round 0 a ledger
// three blocks ahead: each late decide still moves its round on, the first
// round it has not committed starts MinRoundInterval after the last decide,
// and no committed round gets books.
func TestLateDecideAdvancesLaggingRound(t *testing.T) {
	sched, _, v := singleValidatorHarness(t)
	blocks := []chain.Block{commitBlock(t, sched, v), commitBlock(t, sched, v), commitBlock(t, sched, v)}
	for r, b := range blocks {
		v.Deliver(1, decideMsg{Round: r, Block: b})
		if v.round != r+1 {
			t.Fatalf("late decide %d left the round at %d", r, v.round)
		}
	}
	at := sched.Now()
	sched.RunUntil(at + v.cfg.MinRoundInterval - time.Millisecond)
	if _, ok := v.states[3]; ok {
		t.Fatal("round 3 started before MinRoundInterval")
	}
	sched.RunUntil(at + v.cfg.MinRoundInterval)
	if _, ok := v.states[3]; !ok {
		t.Fatal("round 3 did not start after the late decides")
	}
	for r := 1; r < 3; r++ {
		if _, ok := v.states[r]; ok {
			t.Fatalf("committed round %d got books", r)
		}
	}
}
