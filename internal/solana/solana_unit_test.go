package solana

import (
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

func unitValidator(t *testing.T, n int) (*sim.Scheduler, *validator) {
	t.Helper()
	sched := sim.New(5)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(time.Millisecond)})
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	v, ok := Default().NewValidator(0, peers, chain.NewMonitor(), nil).(*validator)
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

func TestConsecutiveLeaderSlots(t *testing.T) {
	_, v := unitValidator(t, 10)
	w := v.cfg.ConsecutiveSlots
	for window := 0; window < 50; window++ {
		leader := v.Leader(window * w)
		for s := 1; s < w; s++ {
			if v.Leader(window*w+s) != leader {
				t.Fatalf("slot %d leader differs within the window", window*w+s)
			}
		}
	}
}

func TestUpcomingLeadersExcludeSelfAndDedup(t *testing.T) {
	_, v := unitValidator(t, 10)
	leaders := v.upcomingLeaders()
	if len(leaders) > v.cfg.UpcomingLeaders+1 {
		t.Fatalf("too many targets: %v", leaders)
	}
	seen := make(map[simnet.NodeID]bool)
	for _, l := range leaders {
		if l == v.base.ID {
			t.Fatal("forwarding to self")
		}
		if seen[l] {
			t.Fatal("duplicate forward target")
		}
		seen[l] = true
	}
}

func TestVoteQuorumRootsBlock(t *testing.T) {
	sched, v := unitValidator(t, 10)
	block := blockMsg{Slot: 3, Height: 0, Leader: v.Leader(3)}
	v.onBlock(block)
	for voter := simnet.NodeID(1); int(voter) < v.quorum; voter++ {
		v.onVote(voteMsg{Slot: 3, Voter: voter})
	}
	sched.RunUntil(time.Second)
	if v.base.Ledger.Height() != 1 {
		t.Fatalf("height = %d after vote quorum", v.base.Ledger.Height())
	}
	if v.lastRootedSlot != 3 {
		t.Fatalf("lastRootedSlot = %d", v.lastRootedSlot)
	}
}

func TestBlockFromWrongLeaderRejected(t *testing.T) {
	_, v := unitValidator(t, 10)
	leader := v.Leader(3)
	imposter := simnet.NodeID((int(leader) + 1) % 10)
	v.onBlock(blockMsg{Slot: 3, Height: 0, Leader: imposter})
	if _, ok := v.blocks[3]; ok {
		t.Fatal("imposter block stored")
	}
}

func TestEAHPanicConditions(t *testing.T) {
	_, v := unitValidator(t, 10)
	// Epoch 3 = [224,480), len 256 < 360, 3/4 mark 416, max lag 32:
	// rooting stalled at slot 350 < 384 when the clock reaches the mark.
	v.lastRootedSlot = 350
	v.checkEAH(416)
	if p, _ := v.Panicked(); !p {
		t.Fatal("no panic with stalled rooting at the 3/4 mark")
	}

	_, v2 := unitValidator(t, 10)
	v2.lastRootedSlot = 290 // rooted near the calc mark (288)
	v2.checkEAH(300)        // the EAH snapshot is taken in the window
	if _, ok := v2.EAH(3); !ok {
		t.Fatal("EAH not computed in the calc window")
	}
	v2.lastRootedSlot = 410 // within MaxRootLagSlots (32) of the mark
	v2.checkEAH(416)
	if p, _ := v2.Panicked(); p {
		t.Fatal("panicked despite healthy rooting and a computed EAH")
	}

	// A computed hash alone is not enough: rooting must also be live at
	// the integration point.
	_, v5 := unitValidator(t, 10)
	v5.lastRootedSlot = 290
	v5.checkEAH(300)
	v5.lastRootedSlot = 340 // stalled before the mark
	v5.checkEAH(416)
	if p, _ := v5.Panicked(); !p {
		t.Fatal("no panic when the integrating bank cannot be rooted")
	}

	// Long epochs never panic: epoch 4 = [480,992) has 512 >= 360 slots.
	_, v3 := unitValidator(t, 10)
	v3.lastRootedSlot = 0
	v3.checkEAH(480 + 3*512/4)
	if p, _ := v3.Panicked(); p {
		t.Fatal("panicked in an epoch long enough for the EAH schedule")
	}

	// Off the mark, no check fires.
	_, v4 := unitValidator(t, 10)
	v4.lastRootedSlot = -1
	v4.checkEAH(415)
	if p, _ := v4.Panicked(); p {
		t.Fatal("panicked away from the 3/4 mark")
	}
}

func TestPanickedValidatorIgnoresTraffic(t *testing.T) {
	sched, v := unitValidator(t, 10)
	v.panic()
	v.Deliver(1, txForward{Tx: chain.Tx{ID: chain.MakeTxID(0, 1)}})
	if v.base.Pool.Len() != 0 {
		t.Fatal("panicked node processed a message")
	}
	sched.RunUntil(5 * time.Second)
	if v.base.Ledger.Height() != 0 {
		t.Fatal("panicked node made progress")
	}
}

func TestSlowFaultTriggersEAHPanic(t *testing.T) {
	// The §2 observation: transient communication delays alone crash all
	// Solana nodes (rooting stalls across the 3/4 mark of a warm-up
	// epoch).
	res, err := core.Run(core.Config{
		System:   Default(),
		Seed:     8,
		Duration: 300 * time.Second,
		Fault: core.FaultPlan{
			Kind:      core.FaultSlow,
			InjectAt:  133 * time.Second,
			RecoverAt: 200 * time.Second,
			SlowBy:    60 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LivenessLost {
		t.Fatalf("Solana survived transient delays; last commit %v", res.LastCommitAt)
	}
}

// TestRestartAfterEAHPanicStaysDown restarts a validator that hit the EAH
// panic: it arms no ticker, so nothing fires, and it drops every delivery,
// answering nothing and pooling nothing.
func TestRestartAfterEAHPanicStaysDown(t *testing.T) {
	sched := sim.New(5)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(time.Millisecond)})
	v, ok := Default().NewValidator(0, []simnet.NodeID{0, 1}, chain.NewMonitor(), nil).(*validator)
	if !ok {
		t.Fatal("unexpected validator type")
	}
	net.AddNode(0, v)
	net.AddNode(1, nopPeer{})
	net.StartAll()
	sched.RunUntil(2 * time.Second)
	v.panic()
	net.Halt(0)
	net.Restart(0)
	sched.RunUntil(5 * time.Second) // the first incarnation's fenced events drain
	fired, sent := sched.Fired(), net.Stats().Sent
	v.Deliver(1, chain.SubmitTx{Tx: chain.Tx{ID: chain.MakeTxID(0, 1), From: 1, To: 2, Amount: 1}})
	v.Deliver(1, chain.SyncReq{From: 0})
	v.Deliver(1, blockMsg{Slot: v.currentSlot(), Leader: 1})
	v.Deliver(1, voteMsg{Slot: v.currentSlot(), Voter: 1})
	sched.RunUntil(10 * time.Second)
	if got := sched.Fired() - fired; got != 0 {
		t.Errorf("%d events fired after the restart", got)
	}
	if got := net.Stats().Sent - sent; got != 0 {
		t.Errorf("%d messages sent after the restart", got)
	}
	if v.base.Pool.Len() != 0 || len(v.blocks) != 0 {
		t.Errorf("restarted panicked validator pooled %d transactions and %d banks", v.base.Pool.Len(), len(v.blocks))
	}
	if panicked, _ := v.Panicked(); !panicked {
		t.Error("restart cleared the panic")
	}
}
