package algorand

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/committee"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

func unitValidator(t *testing.T, n int) (*sim.Scheduler, *validator) {
	t.Helper()
	return systemValidator(t, Default(), n)
}

// systemValidator is validator 0 of an n-node deployment of s, started, with
// every other node a sink.
func systemValidator(t *testing.T, s *System, n int) (*sim.Scheduler, *validator) {
	t.Helper()
	sched := sim.New(5)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(time.Millisecond)})
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	v, ok := s.NewValidator(0, peers, chain.NewMonitor(), nil).(*validator)
	if !ok {
		t.Fatal("unexpected validator type")
	}
	net.AddNode(0, v)
	for _, p := range peers[1:] {
		net.AddNode(p, nopPeer{})
	}
	net.StartAll()
	return sched, v
}

type nopPeer struct{}

func (nopPeer) Start(*simnet.Context)      {}
func (nopPeer) Stop()                      {}
func (nopPeer) Deliver(simnet.NodeID, any) {}

func TestCandidatesDistinctAndStable(t *testing.T) {
	_, v := unitValidator(t, 10)
	for r := 0; r < 100; r++ {
		cands := v.Candidates(r)
		if len(cands) != v.cfg.ProposerCandidates {
			t.Fatalf("round %d: %d candidates", r, len(cands))
		}
		if cands[0] == cands[1] {
			t.Fatalf("round %d: duplicate candidates %v", r, cands)
		}
		if v.rank(r, cands[0]) != 0 || v.rank(r, cands[1]) != 1 {
			t.Fatalf("round %d: rank inconsistent", r)
		}
	}
	if v.rank(0, 99) != -1 {
		t.Fatal("rank of non-candidate should be -1")
	}
}

func TestBestProposalPicksLowestRank(t *testing.T) {
	_, v := unitValidator(t, 10)
	cands := v.Candidates(0)
	v.onProposal(proposalMsg{Round: 0, Proposer: cands[1]})
	if got := v.bestProposal(0); got.Proposer != cands[1] {
		t.Fatalf("best = %v", got.Proposer)
	}
	v.onProposal(proposalMsg{Round: 0, Proposer: cands[0]})
	if got := v.bestProposal(0); got.Proposer != cands[0] {
		t.Fatalf("best after rank-1 arrival = %v, want %v", got.Proposer, cands[0])
	}
	// Non-candidate proposals are rejected.
	other := simnet.NodeID(0)
	for _, p := range v.base.Peers {
		if v.rank(0, p) == -1 {
			other = p
			break
		}
	}
	v.onProposal(proposalMsg{Round: 0, Proposer: other})
	if _, ok := v.proposals[proposalKey{0, other}]; ok {
		t.Fatal("non-candidate proposal accepted")
	}
}

func TestSlowRoundResetsWithRefractory(t *testing.T) {
	sched, v := unitValidator(t, 10)
	v.filterTO = v.cfg.MinFilterTimeout
	v.slowRound()
	if v.filterTO != v.cfg.DefaultFilterTimeout {
		t.Fatalf("filterTO = %v after slow round", v.filterTO)
	}
	if v.Resets() != 1 {
		t.Fatalf("resets = %d", v.Resets())
	}
	// Within the refractory window further slow rounds are absorbed.
	v.filterTO = v.cfg.MinFilterTimeout
	v.slowRound()
	if v.filterTO != v.cfg.MinFilterTimeout {
		t.Fatal("reset fired inside the refractory window")
	}
	// After the window it fires again.
	sched.RunUntil(sched.Now() + v.cfg.ResetRefractory + time.Second)
	v.slowRound()
	if v.filterTO != v.cfg.DefaultFilterTimeout {
		t.Fatal("reset did not fire after the refractory window")
	}
}

func TestDynamicRoundTimeShrinksOnCommit(t *testing.T) {
	sched, v := unitValidator(t, 10)
	before := v.filterTO
	prop := proposalMsg{Round: 0, Height: 0, Proposer: v.Proposer(0)}
	v.onProposal(prop)
	// Quorum (9 of 10) of cert votes for the round commits it.
	for voter := simnet.NodeID(0); voter < 9; voter++ {
		v.onVote(voteMsg{Round: 0, Stage: stageCert, Voter: voter, Proposer: prop.Proposer})
	}
	if v.round != 1 {
		t.Fatalf("round = %d after commit", v.round)
	}
	if v.filterTO >= before {
		t.Fatalf("filter timeout did not shrink: %v -> %v", before, v.filterTO)
	}
	sched.RunUntil(time.Second)
	if v.base.Ledger.Height() != 1 {
		t.Fatalf("height = %d", v.base.Ledger.Height())
	}
}

func TestNextVoteQuorumAdvancesSlowly(t *testing.T) {
	_, v := unitValidator(t, 10)
	v.filterTO = v.cfg.MinFilterTimeout
	for voter := simnet.NodeID(0); voter < 9; voter++ {
		v.onNext(nextMsg{Round: 0, Voter: voter})
	}
	if v.round != 1 {
		t.Fatalf("round = %d after next-vote quorum", v.round)
	}
	if v.filterTO != v.cfg.DefaultFilterTimeout {
		t.Fatalf("failed round did not reset the round time: %v", v.filterTO)
	}
}

func TestPullGossipExchangesPoolContents(t *testing.T) {
	sched := sim.New(6)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(time.Millisecond)})
	peers := []simnet.NodeID{0, 1}
	mkv := func(id simnet.NodeID) *validator {
		v, ok := Default().NewValidator(id, peers, chain.NewMonitor(), nil).(*validator)
		if !ok {
			t.Fatal("unexpected type")
		}
		return v
	}
	a, b := mkv(0), mkv(1)
	net.AddNode(0, a)
	net.AddNode(1, b)
	net.StartAll()
	tx := chain.Tx{ID: chain.MakeTxID(0, 1), From: 1, To: 2}
	b.base.Pool.Add(tx)
	// Drive a's pull gossip; with two live validators the transaction may
	// also simply commit, which equally proves it propagated.
	sched.RunUntil(10 * a.cfg.PullInterval)
	_, committed := a.base.Ledger.Committed(tx.ID)
	if !a.base.Pool.Contains(tx.ID) && !committed {
		t.Fatal("pull gossip did not propagate the peer's transaction")
	}
}

// TestCommitteeMemoEqualsSchedule holds every committee-mode lookup of a
// validator, which answers from its one-entry memo on a repeat, to a
// Schedule of its own: over interleaved (round, step) sequences, after a
// Restore to a checkpoint taken while the memo pointed at a later round, and
// after the shared Schedule evicted the memoized entry.
func TestCommitteeMemoEqualsSchedule(t *testing.T) {
	const n, size = 64, 16
	sys := Default()
	sys.SetCommitteeSize(size)
	_, v := systemValidator(t, sys, n)
	ref := committee.NewSchedule(sys.stakeTable(n), sys.cfg.SortitionSeed, size)
	check := func(label string, round, step int) {
		t.Helper()
		want := ref.Committee(uint64(round), uint8(step))
		if got := v.committeeAt(round, step); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: committee (%d, %d) differs from the Schedule's", label, round, step)
		}
		if v.votes.Threshold(round, step) != want.Quorum() ||
			v.evidenceThreshold(round) != ref.Committee(uint64(round), stageSoft).Evidence() {
			t.Fatalf("%s: quorum or evidence threshold of (%d, %d) differs", label, round, step)
		}
		for voter := simnet.NodeID(0); voter < n; voter++ {
			if v.votes.Seated(round, step, voter) != want.IsMember(int(voter)) {
				t.Fatalf("%s: voter %d counts differently at (%d, %d)", label, voter, round, step)
			}
		}
		if got, want := v.Candidates(round)[0], v.base.Peers[ref.Committee(uint64(round), stepProposer).Order()[0]]; got != want {
			t.Fatalf("%s: round %d proposer is %v, want %v", label, round, got, want)
		}
	}
	// memoized answers one lookup and reports whether the memo then holds
	// the Schedule's committee.
	memoized := func(round, step int) bool {
		return reflect.DeepEqual(v.committeeAt(round, step), ref.Committee(uint64(round), uint8(step)))
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		check("interleaved", rng.Intn(6), rng.Intn(4))
	}

	v.committeeAt(90, stageCert)
	cp := v.Snapshot()
	check("after checkpoint", 5, stageSoft)
	v.Restore(cp)
	if v.memoRound != 90 || v.memoStep != stageCert {
		t.Fatalf("restored memo holds (%d, %d), want (90, %d)", v.memoRound, v.memoStep, stageCert)
	}
	if !memoized(90, stageCert) {
		t.Fatal("restored memo differs from the Schedule's (90, cert)")
	}
	check("after restore", 5, stageSoft)

	v.committeeAt(7, stepNext)
	memo := v.memo
	for r := uint64(1000); r < 1300; r++ {
		v.comm.Committee(r, stepNext)
	}
	if v.comm.Committee(7, stepNext) == memo {
		t.Fatal("the Schedule still holds (7, next): nothing was evicted")
	}
	if v.committeeAt(7, stepNext) != memo || !memoized(7, stepNext) {
		t.Fatal("after eviction the memo no longer answers (7, next) with the Schedule's committee")
	}
	check("after eviction", 7, stepNext)
}
