package avalanche

import (
	"slices"
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// heard is one delivery as a peer saw it.
type heard struct {
	at      time.Duration
	to      simnet.NodeID
	payload any
}

type hearPeer struct {
	ctx *simnet.Context
	id  simnet.NodeID
	log *[]heard
}

func (h *hearPeer) Start(ctx *simnet.Context) { h.ctx = ctx }
func (h *hearPeer) Stop()                     {}
func (h *hearPeer) Deliver(_ simnet.NodeID, payload any) {
	*h.log = append(*h.log, heard{h.ctx.Now(), h.id, payload})
}

// gossipRig is validator 0 of ten on a network with random latency, a lossy
// sender, a partition that cuts it from two peers, one peer down and the
// connection layer on — every way a send can be dropped. Its peers record
// what reaches them.
func gossipRig(t *testing.T) (*sim.Scheduler, *simnet.Network, *validator, *[]heard) {
	t.Helper()
	sched := sim.New(9)
	net := simnet.New(sched, simnet.Config{Latency: simnet.UniformLatency{Min: time.Millisecond, Max: 30 * time.Millisecond}})
	peers := make([]simnet.NodeID, 10)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	cfg := DefaultConfig()
	cfg.Throttling = false
	v := NewSystem(cfg).NewValidator(0, peers, chain.NewMonitor(), nil).(*validator)
	net.AddNode(0, v)
	log := new([]heard)
	for _, p := range peers[1:] {
		net.AddNode(p, &hearPeer{id: p, log: log})
	}
	net.ManageConns(peers, cfg.Conn)
	net.StartAll()
	net.SetLoss(0, 0.2)
	net.Partition([]simnet.NodeID{0}, []simnet.NodeID{3, 4})
	net.Halt(7)
	return sched, net, v, log
}

// TestGossipFlightEqualsSendLoop: Avalanche's two sampled fan-outs — a
// transaction announcement and a Snowball query — hand their sample to
// ctx.Broadcast. Each must put on the wire exactly what the per-peer Send
// loop it replaced did: same sample, same drops under loss, partition, a dead
// peer and the connection gate, same delivery instants and order.
func TestGossipFlightEqualsSendLoop(t *testing.T) {
	type site struct {
		name   string
		flight func(v *validator, i int)
		loop   func(v *validator, i int)
	}
	tx := func(i int) chain.Tx { return chain.Tx{ID: chain.MakeTxID(0, uint32(i)), Nonce: uint64(i)} }
	sites := []site{
		{"gossipTo",
			func(v *validator, i int) { v.gossipTo(tx(i), i%2) },
			func(v *validator, i int) {
				fanout := v.cfg.GossipFanout
				if i%2 > 0 {
					fanout = v.cfg.RelayFanout
				}
				for _, p := range v.samplePeersN(fanout, nil) {
					v.base.Ctx().Send(p, txGossip{Tx: tx(i), Hop: i % 2})
				}
			}},
		{"onQueryTick",
			func(v *validator, _ int) { v.onQueryTick() },
			func(v *validator, _ int) {
				inst := v.inst
				if inst == nil || inst.accepted || inst.roundOpen {
					return
				}
				inst.roundSeq++
				inst.roundOpen = true
				for _, p := range v.samplePeersN(v.cfg.K, nil) {
					v.base.Ctx().Send(p, queryMsg{Height: inst.height, Slot: inst.pref.Slot, Seq: inst.roundSeq})
				}
			}},
	}
	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			run := func(call func(*validator, int)) ([]heard, simnet.Stats) {
				sched, net, v, log := gossipRig(t)
				v.onProposal(proposalMsg{Slot: 1, Height: 0, Proposer: v.Proposer(1)})
				for i := 0; i < 200; i++ {
					call(v, i)
					v.inst.roundOpen = false // let the next query round open
					sched.RunUntil(sched.Now() + 7*time.Millisecond)
				}
				sched.RunUntil(sched.Now() + time.Second)
				return *log, net.Stats()
			}
			want, wantStats := run(s.loop)
			got, gotStats := run(s.flight)
			if gotStats != wantStats {
				t.Fatalf("network counters diverge:\n flight %+v\n loop   %+v", gotStats, wantStats)
			}
			if wantStats.DroppedLoss == 0 || wantStats.DroppedPartition == 0 || wantStats.DroppedNodeDown == 0 || wantStats.Delivered == 0 {
				t.Fatalf("the rig does not exercise every drop: %+v", wantStats)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("deliveries diverge: %d by flight, %d by send loop", len(got), len(want))
			}
		})
	}
}

// TestDeliverTxGossipAllocatesNothing: a transaction announcement the CPU
// quota admits at once reaches the pool without a closure or a re-boxing —
// the per-message allocations the throttled path alone may pay.
func TestDeliverTxGossipAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPURate, cfg.CPUBurst = 1e9, 1e9
	_, v := unitValidator(t, 10, cfg)
	const runs = 1000
	msgs := make([]any, 0, runs+2)
	for i := 0; i < cap(msgs); i++ {
		// Hop 2: pooled on first sight, not relayed.
		msgs = append(msgs, txGossip{Tx: chain.Tx{ID: chain.MakeTxID(1, uint32(i))}, Hop: 2})
	}
	// Size the pool's queue and table row first: their amortised growth is
	// not a per-message cost.
	for _, m := range msgs {
		v.Deliver(1, m)
	}
	v.base.Pool.Drop(v.base.Pool.Peek(0))
	i := 0
	if avg := testing.AllocsPerRun(runs, func() { v.Deliver(1, msgs[i]); i++ }); avg != 0 {
		t.Fatalf("an admitted txGossip costs %.2f allocations, want 0", avg)
	}
	if v.base.Pool.Len() < runs {
		t.Fatalf("only %d of %d announcements reached the pool", v.base.Pool.Len(), runs)
	}
}
