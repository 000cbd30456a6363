package avalanche

import (
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

func unitValidator(t *testing.T, n int, cfg Config) (*sim.Scheduler, *validator) {
	t.Helper()
	sched := sim.New(5)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(time.Millisecond)})
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	v, ok := NewSystem(cfg).NewValidator(0, peers, chain.NewMonitor(), nil).(*validator)
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

func TestSamplePeersExcludesSelfAndRespectsK(t *testing.T) {
	_, v := unitValidator(t, 10, DefaultConfig())
	for i := 0; i < 50; i++ {
		sample := v.samplePeersN(v.cfg.K, nil)
		if len(sample) != v.cfg.K {
			t.Fatalf("sample size = %d", len(sample))
		}
		seen := make(map[simnet.NodeID]bool)
		for _, p := range sample {
			if p == v.base.ID {
				t.Fatal("sampled self")
			}
			if seen[p] {
				t.Fatal("duplicate in sample")
			}
			seen[p] = true
		}
	}
}

func TestSnowballConfidenceAndAcceptance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Throttling = false
	sched, v := unitValidator(t, 10, cfg)
	prop := proposalMsg{Slot: 1, Height: 0, Proposer: v.Proposer(1)}
	v.onProposal(prop)
	if v.inst == nil || v.inst.pref.Slot != 1 {
		t.Fatal("instance not started for tip proposal")
	}
	// Drive beta successful rounds by answering each poll directly.
	for round := 0; round < v.cfg.Beta; round++ {
		v.onQueryTick()
		if !v.inst.roundOpen {
			t.Fatalf("round %d not open", round)
		}
		seq := v.inst.roundSeq
		for i := 0; i < v.cfg.Alpha; i++ {
			v.onResponse(responseMsg{Height: 0, PrefSlot: 1, Seq: seq})
		}
	}
	if v.base.ChainTip() != 1 {
		t.Fatalf("tip = %d after beta confident rounds", v.base.ChainTip())
	}
	sched.RunUntil(time.Second)
	if v.base.Ledger.Height() != 1 {
		t.Fatalf("height = %d", v.base.Ledger.Height())
	}
}

func TestSnowballResetOnFailedPoll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Throttling = false
	_, v := unitValidator(t, 10, cfg)
	v.onProposal(proposalMsg{Slot: 1, Height: 0, Proposer: v.Proposer(1)})
	v.onQueryTick()
	seq := v.inst.roundSeq
	for i := 0; i < v.cfg.Alpha; i++ {
		v.onResponse(responseMsg{Height: 0, PrefSlot: 1, Seq: seq})
	}
	if v.inst.confidence != 1 {
		t.Fatalf("confidence = %d", v.inst.confidence)
	}
	// Next poll: only negative chits until the sample completes.
	v.onQueryTick()
	seq = v.inst.roundSeq
	for i := 0; i < v.cfg.K; i++ {
		v.onResponse(responseMsg{Height: 0, PrefSlot: -1, Seq: seq})
	}
	if v.inst.confidence != 0 {
		t.Fatalf("confidence = %d after failed poll, want reset", v.inst.confidence)
	}
	if v.ConfidenceResets() == 0 {
		t.Fatal("reset not counted")
	}
}

func TestDecidedResponseShortCircuitsInstance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Throttling = false
	sched, v := unitValidator(t, 10, cfg)
	v.onProposal(proposalMsg{Slot: 1, Height: 0, Proposer: v.Proposer(1)})
	v.onQueryTick()
	seq := v.inst.roundSeq
	decided := chain.Block{Height: 0, DecidedAt: time.Second}
	v.onResponse(responseMsg{Height: 0, Seq: seq, Decided: &decided})
	sched.RunUntil(time.Second)
	if v.base.Ledger.Height() != 1 {
		t.Fatal("decided response did not finalize the height")
	}
}

func TestInboundThrottlerDropsBeyondBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPURate = 1
	cfg.CPUBurst = 1
	cfg.MaxBuffered = 3
	_, v := unitValidator(t, 4, cfg)
	tx := chain.Tx{ID: chain.MakeTxID(0, 1)}
	for i := 0; i < 50; i++ {
		v.Deliver(1, txGossip{Tx: tx, Hop: 2})
	}
	if v.DroppedInbound() == 0 {
		t.Fatal("buffer throttler dropped nothing under a message flood")
	}
	if v.buffered > cfg.MaxBuffered {
		t.Fatalf("buffered = %d exceeds cap %d", v.buffered, cfg.MaxBuffered)
	}
}

func TestThrottlingDisabledProcessesInline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Throttling = false
	_, v := unitValidator(t, 4, cfg)
	tx := chain.Tx{ID: chain.MakeTxID(0, 1)}
	v.Deliver(1, txGossip{Tx: tx, Hop: 2})
	if !v.base.Pool.Contains(tx.ID) {
		t.Fatal("message not processed inline without throttling")
	}
	if v.DroppedInbound() != 0 {
		t.Fatal("drops counted with throttling disabled")
	}
}

func TestRelayHopLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Throttling = false
	_, v := unitValidator(t, 10, cfg)
	fresh := chain.Tx{ID: chain.MakeTxID(0, 1)}
	v.onTxGossip(txGossip{Tx: fresh, Hop: 0})
	if len(v.announceQ) != 1 {
		t.Fatalf("hop-0 receipt queued %d announcements, want 1 relay", len(v.announceQ))
	}
	deep := chain.Tx{ID: chain.MakeTxID(0, 2)}
	v.onTxGossip(txGossip{Tx: deep, Hop: 2})
	if len(v.announceQ) != 1 {
		t.Fatal("hop-2 receipt must not relay further")
	}
}

func TestGossipSkipsCommittedTxs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Throttling = false
	sched, v := unitValidator(t, 4, cfg)
	tx := chain.Tx{ID: chain.MakeTxID(0, 1)}
	v.base.SubmitBlock(chain.Block{Height: 0, Txs: []chain.Tx{tx}})
	sched.RunUntil(100 * time.Millisecond)
	v.announceQ = append(v.announceQ, announcement{tx: tx})
	before := v.base.Ctx() // keep ctx alive
	_ = before
	sent := sentCounter(t, sched, v)
	v.onGossip()
	if sent() != 0 {
		t.Fatal("committed tx was gossiped")
	}
}

// sentCounter snapshots the network send counter.
func sentCounter(t *testing.T, sched *sim.Scheduler, v *validator) func() uint64 {
	t.Helper()
	// The validator context has no direct net handle; approximate by
	// counting scheduler events produced by the call.
	before := sched.Pending()
	return func() uint64 { return uint64(sched.Pending() - before) }
}

func TestStakeWeightedSamplingBias(t *testing.T) {
	cfg := DefaultConfig()
	// Peer 1 holds 10x the stake of the other peers.
	cfg.StakeWeights = []float64{1, 10, 1, 1, 1, 1, 1, 1, 1, 1}
	_, v := unitValidator(t, 10, cfg)
	hits := make(map[simnet.NodeID]int)
	const draws = 2000
	for i := 0; i < draws; i++ {
		for _, p := range v.samplePeersN(3, nil) {
			hits[p]++
		}
	}
	// Peer 1 must appear in nearly every sample; an equal-stake peer in
	// roughly (3-1)/8 of them.
	whale := float64(hits[1]) / draws
	small := float64(hits[2]) / draws
	if whale < 2*small {
		t.Fatalf("whale sampled %.2f vs small %.2f; stake weighting not applied", whale, small)
	}
}

func TestEqualStakeSamplingUniform(t *testing.T) {
	_, v := unitValidator(t, 10, DefaultConfig())
	hits := make(map[simnet.NodeID]int)
	const draws = 3000
	for i := 0; i < draws; i++ {
		for _, p := range v.samplePeersN(3, nil) {
			hits[p]++
		}
	}
	for id, c := range hits {
		frac := float64(c) / draws
		if frac < 0.22 || frac > 0.45 { // expect ~3/9 = 0.33
			t.Fatalf("peer %v sampled %.2f with equal stake", id, frac)
		}
	}
}
