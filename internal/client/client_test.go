package client

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/sim"
	"stabl/internal/simnet"
	"stabl/internal/workload"
)

// ackNode is a trivial validator that confirms every submission after a
// fixed delay, or swallows submissions when mute.
type ackNode struct {
	ctx   *simnet.Context
	delay time.Duration
	mute  bool
	seen  map[chain.TxID]int
	// resent lists retransmissions (a submission of an id already seen) with
	// their arrival instants, in arrival order.
	resent []arrival
	// echo lists nodes that also confirm every submission this node confirms,
	// whether the client asked them or not.
	echo []*ackNode
}

type arrival struct {
	at time.Duration
	id chain.TxID
}

func (a *ackNode) Start(ctx *simnet.Context) { a.ctx = ctx }
func (a *ackNode) Stop()                     {}
func (a *ackNode) Deliver(from simnet.NodeID, payload any) {
	sub, ok := payload.(chain.SubmitTx)
	if !ok {
		return
	}
	if a.seen == nil {
		a.seen = make(map[chain.TxID]int)
	}
	if a.seen[sub.Tx.ID] > 0 {
		a.resent = append(a.resent, arrival{a.ctx.Now(), sub.Tx.ID})
	}
	a.seen[sub.Tx.ID]++
	if a.mute {
		return
	}
	id := sub.Tx.ID
	a.ctx.After(a.delay, func() {
		a.ctx.Send(from, chain.TxCommitted{ID: id})
		for _, e := range a.echo {
			e.ctx.Send(from, chain.TxCommitted{ID: id})
		}
	})
}

// testFlow builds a k-member flow over 4 accounts per member, namespaced from
// global client index start.
func testFlow(t *testing.T, start, k int, sched *sim.Scheduler) *workload.Flow {
	t.Helper()
	fl, err := workload.NewFlow(uint32(start), k, 4, 0, 4*k, 4*k, sched.RNG("wl"))
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// clientSetup deploys one k-member flow client against `nodes` ack nodes, all
// of them in its endpoint pool; cfg.Fanout defaults to 1.
func clientSetup(t *testing.T, cfg FlowConfig, k, nodes int, delay time.Duration) (*sim.Scheduler, *FlowClient, []*ackNode) {
	t.Helper()
	sched := sim.New(11)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(5 * time.Millisecond)})
	acks := make([]*ackNode, nodes)
	for i := range acks {
		acks[i] = &ackNode{delay: delay}
		net.AddNode(simnet.NodeID(i), acks[i])
		cfg.Endpoints = append(cfg.Endpoints, simnet.NodeID(i))
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 1
	}
	cfg.VirtualBase = 100
	c := NewFlow(cfg, testFlow(t, cfg.Start, k, sched))
	net.AddNode(100, c)
	net.StartAll()
	return sched, c, acks
}

// forMembers runs fn for a single-member flow (the paper's one client per
// endpoint) and for a three-member one; counts scale with k, nothing else
// may.
func forMembers(t *testing.T, fn func(t *testing.T, k int)) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

func TestClientMeasuresLatency(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		sched, c, _ := clientSetup(t, FlowConfig{Rate: 10}, k, 1, 100*time.Millisecond)
		sched.RunUntil(2 * time.Second)
		if c.Submitted() == 0 {
			t.Fatal("nothing submitted")
		}
		if len(c.Latencies()) == 0 {
			t.Fatal("no latencies recorded")
		}
		if len(c.CompletionTimes()) != len(c.Latencies()) {
			t.Fatalf("%d completion times for %d latencies", len(c.CompletionTimes()), len(c.Latencies()))
		}
		// Latency = 5ms up + 100ms node delay + 5ms down = 110ms.
		for _, lat := range c.Latencies() {
			if lat < 0.109 || lat > 0.112 {
				t.Fatalf("latency = %v, want ~0.110", lat)
			}
		}
	})
}

func TestClientRateHonored(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		sched, c, _ := clientSetup(t, FlowConfig{Rate: 40}, k, 1, 10*time.Millisecond)
		sched.RunUntil(10 * time.Second)
		// 40 tx/s per member for 10 s: first tick at 25ms, so 400 +- 1 each.
		if c.Clients() != k {
			t.Fatalf("Clients = %d, want %d", c.Clients(), k)
		}
		if c.Submitted() < 398*k || c.Submitted() > 401*k {
			t.Fatalf("submitted = %d, want ~%d", c.Submitted(), 400*k)
		}
	})
}

func TestClientStopTime(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		sched, c, _ := clientSetup(t, FlowConfig{Rate: 10, Stop: time.Second}, k, 1, time.Millisecond)
		sched.RunUntil(5 * time.Second)
		if c.Submitted() > 10*k {
			t.Fatalf("submitted = %d after Stop, want <= %d", c.Submitted(), 10*k)
		}
		if c.PendingCount() != 0 {
			t.Fatalf("%d still pending long after Stop: the client must keep listening", c.PendingCount())
		}
	})
}

func TestSecureClientWaitsForAllEndpoints(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		cfg := FlowConfig{Fanout: 4, Rate: 5, Stop: 2 * time.Second}
		sched, c, acks := clientSetup(t, cfg, k, 4, 50*time.Millisecond)
		// Node 3 is slower than the rest.
		acks[3].delay = 300 * time.Millisecond
		sched.RunUntil(4 * time.Second)
		if len(c.Latencies()) == 0 {
			t.Fatal("no completions")
		}
		for _, lat := range c.Latencies() {
			if lat < 0.30 {
				t.Fatalf("latency = %v; secure client must wait for slowest node", lat)
			}
		}
		// Every node saw every transaction.
		for i, a := range acks {
			if len(a.seen) != c.Submitted() {
				t.Fatalf("node %d saw %d txs, want %d", i, len(a.seen), c.Submitted())
			}
		}
	})
}

func TestSecureClientIncompleteWithoutAllAcks(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		sched, c, acks := clientSetup(t, FlowConfig{Fanout: 2, Rate: 5}, k, 2, 10*time.Millisecond)
		acks[1].mute = true
		sched.RunUntil(3 * time.Second)
		if len(c.Latencies()) != 0 {
			t.Fatal("completed without all endpoint confirmations")
		}
		if c.PendingCount() == 0 {
			t.Fatal("pending should be non-empty")
		}
	})
}

// TestSecureClientIgnoresUnsolicited: "t+1 answered" means the t+1 validators
// the member asked. A confirmation from a pool validator it did not submit
// to, or from a node outside the pool, completes nothing — and neither does
// the same endpoint answering twice.
func TestSecureClientIgnoresUnsolicited(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		// A pool of four and an outsider. Member m asks pool nodes m and m+1;
		// only node 0 answers, so member 0 has one of its two answers and the
		// others none. Whatever node 0 confirms, it confirms a second time,
		// and nodes 2, 3 (in the pool, not asked by member 0) and 4 (outside
		// it) confirm too.
		sched := sim.New(11)
		net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(5 * time.Millisecond)})
		acks := make([]*ackNode, 5)
		for i := range acks {
			acks[i] = &ackNode{delay: 10 * time.Millisecond, mute: i != 0}
			net.AddNode(simnet.NodeID(i), acks[i])
		}
		acks[0].echo = []*ackNode{acks[0], acks[2], acks[3], acks[4]}
		c := NewFlow(FlowConfig{
			Endpoints: []simnet.NodeID{0, 1, 2, 3}, Fanout: 2, Rate: 5, Stop: 2 * time.Second,
			RetryAfter: time.Second, VirtualBase: 100,
		}, testFlow(t, 0, k, sched))
		net.AddNode(100, c)
		net.StartAll()
		sched.RunUntil(3 * time.Second)
		if len(acks[0].seen) == 0 {
			t.Fatal("node 0 confirmed nothing")
		}
		if n := len(c.Latencies()); n != 0 {
			t.Fatalf("%d transactions completed on answers from validators the member never asked", n)
		}
		if c.PendingCount() != c.Submitted() {
			t.Fatalf("pending %d of %d submitted", c.PendingCount(), c.Submitted())
		}
		// Four answers in five confirmed nothing: node 0's repeat and the
		// three nobody asked. Only member 0 asks node 0.
		if heard := 5 * len(acks[0].seen); c.ignored != heard*4/5 {
			t.Fatalf("%d of %d answers ignored, want four in five", c.ignored, heard)
		}
		// The asked endpoints answering — to a retry — is what completes them.
		for _, a := range acks {
			a.mute = false
		}
		sched.RunUntil(5 * time.Second)
		if c.PendingCount() != 0 {
			t.Fatalf("%d still pending after every asked endpoint answered", c.PendingCount())
		}
	})
}

// TestSecureClientWideFanout: the secure client at scale waits for t+1 = 683
// of 2,048 validators — more answers than a machine word has bits. The
// transaction completes on the last distinct answer, not before, however
// many repeats arrive meanwhile.
func TestSecureClientWideFanout(t *testing.T) {
	const nodes, fanout, start = 2048, 683, 2000
	sched := sim.New(11)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(5 * time.Millisecond)})
	cfg := FlowConfig{Start: start, Fanout: fanout, Rate: 1, Stop: 1500 * time.Millisecond, VirtualBase: 5000}
	acks := make([]*ackNode, nodes)
	for i := range acks {
		// The member's slot j is pool node (start+j) mod nodes and answers
		// j+1 ms after the submission reaches it, twice.
		slot := (i - start + nodes) % nodes
		acks[i] = &ackNode{delay: time.Duration(slot+1) * time.Millisecond}
		acks[i].echo = []*ackNode{acks[i]}
		net.AddNode(simnet.NodeID(i), acks[i])
		cfg.Endpoints = append(cfg.Endpoints, simnet.NodeID(i))
	}
	c := NewFlow(cfg, testFlow(t, start, 1, sched))
	net.AddNode(5000, c)
	net.StartAll()
	// Submitted at 1 s; slot j's answers land at 1 s + 5 + (j+1) + 5 ms.
	last := time.Second + (fanout+10)*time.Millisecond
	sched.RunUntil(last - time.Millisecond)
	if c.Submitted() != 1 || c.PendingCount() != 1 {
		t.Fatalf("one answer short of %d: submitted %d, pending %d", fanout, c.Submitted(), c.PendingCount())
	}
	sched.RunUntil(last)
	if c.PendingCount() != 0 || len(c.Latencies()) != 1 {
		t.Fatalf("after the last distinct answer: pending %d, %d latencies", c.PendingCount(), len(c.Latencies()))
	}
	if got, want := c.Latencies()[0], (last - time.Second).Seconds(); got != want {
		t.Fatalf("latency %v, want %v", got, want)
	}
	for i, a := range acks {
		asked := (i-start+nodes)%nodes < fanout
		if (len(a.seen) == 1) != asked {
			t.Fatalf("node %d: asked = %v, saw %d submissions", i, asked, len(a.seen))
		}
	}
}

// TestDefaultClientSpreadsMembersOverPool: with Fanout 1, global client c
// (member c-Start of its flow) trusts exactly pool[c mod P].
func TestDefaultClientSpreadsMembersOverPool(t *testing.T) {
	sched, c, acks := clientSetup(t, FlowConfig{Start: 1, Rate: 5}, 3, 3, time.Millisecond)
	sched.RunUntil(2 * time.Second)
	if len(c.Latencies()) == 0 {
		t.Fatal("no completions")
	}
	for i, a := range acks {
		for id := range a.seen {
			if want := int(id.Client()) % 3; want != i {
				t.Fatalf("tx %v of client %d reached node %d, want node %d", id, id.Client(), i, want)
			}
		}
	}
}

func TestClientRetriesUnconfirmed(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		cfg := FlowConfig{Rate: 2, RetryAfter: 2 * time.Second, MaxRetries: 3}
		sched, c, acks := clientSetup(t, cfg, k, 1, 10*time.Millisecond)
		acks[0].mute = true
		// Stop between two retry scans, so nothing resent is still in flight.
		sched.RunUntil(10*time.Second + 500*time.Millisecond)
		if c.Retried() == 0 {
			t.Fatal("no retries despite silence")
		}
		if c.Retried() != len(acks[0].resent) {
			t.Fatalf("Retried = %d, node saw %d retransmissions", c.Retried(), len(acks[0].resent))
		}
		// Per-tx retry bound respected.
		for id, n := range acks[0].seen {
			if n > 4 {
				t.Fatalf("tx %v submitted %d times, want <= 4", id, n)
			}
		}
		// One retry scan resubmits in TxID order — member-major, the order k
		// single-member flows scanning one after the other produce — not in
		// the flow's round-robin submission order.
		for i := 1; i < len(acks[0].resent); i++ {
			prev, cur := acks[0].resent[i-1], acks[0].resent[i]
			if prev.at == cur.at && prev.id >= cur.id {
				t.Fatalf("retransmissions at %v out of TxID order: %v before %v", cur.at, prev.id, cur.id)
			}
		}
	})
}

// TestClientRetriesOnlyUnconfirmedEndpoints: a secure client's retry goes to
// the endpoints that have not answered, not to the ones that have.
func TestClientRetriesOnlyUnconfirmedEndpoints(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		cfg := FlowConfig{Fanout: 2, Rate: 2, RetryAfter: 2 * time.Second, Stop: 3 * time.Second}
		sched, c, acks := clientSetup(t, cfg, k, 2, 10*time.Millisecond)
		acks[1].mute = true
		sched.RunUntil(8 * time.Second)
		if c.Retried() == 0 || len(acks[1].resent) == 0 {
			t.Fatal("no retries towards the silent endpoint")
		}
		if len(acks[0].resent) != 0 {
			t.Fatalf("%d retransmissions to an endpoint that had confirmed", len(acks[0].resent))
		}
	})
}

func TestClientPanicsOnBadConfig(t *testing.T) {
	pool := []simnet.NodeID{0, 1}
	cases := []struct {
		name string
		cfg  FlowConfig
	}{
		{"no endpoints", FlowConfig{Fanout: 1, Rate: 1}},
		{"zero fanout", FlowConfig{Endpoints: pool, Rate: 1}},
		{"fanout beyond the pool", FlowConfig{Endpoints: pool, Fanout: 3, Rate: 1}},
		{"zero rate", FlowConfig{Endpoints: pool, Fanout: 1}},
		{"negative rate", FlowConfig{Endpoints: pool, Fanout: 1, Rate: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := testFlow(t, 0, 1, sim.New(1))
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			NewFlow(tc.cfg, fl)
		})
	}
}

func TestClientBurstProfileModulatesRate(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		cfg := FlowConfig{
			Rate:    40,
			Profile: workload.Burst(10*time.Second, 5*time.Second, 3),
			Stop:    20 * time.Second,
		}
		sched, c, _ := clientSetup(t, cfg, k, 1, time.Millisecond)
		sched.RunUntil(25 * time.Second)
		// Two periods: 2 x (5s at 120 tx/s + 5s at 40 tx/s) = 1600 per member.
		if c.Submitted() < 1500*k || c.Submitted() > 1650*k {
			t.Fatalf("submitted = %d, want ~%d", c.Submitted(), 1600*k)
		}
	})
}

func TestClientRampProfile(t *testing.T) {
	forMembers(t, func(t *testing.T, k int) {
		cfg := FlowConfig{
			Rate:    10,
			Profile: workload.Ramp(0, 2, 10*time.Second),
			Stop:    10 * time.Second,
		}
		sched, c, _ := clientSetup(t, cfg, k, 1, time.Millisecond)
		sched.RunUntil(12 * time.Second)
		// Integral of 10*(0..2) over 10s = 100 per member.
		if c.Submitted() < 90*k || c.Submitted() > 110*k {
			t.Fatalf("submitted = %d, want ~%d", c.Submitted(), 100*k)
		}
	})
}

// TestFlowPartitionInvariance: three clients deployed as one three-member
// flow and as three single-member flows put the same transactions on the
// wire — same ids, same instants, same retransmissions in the same order —
// with retries and the secure client's fan-out both in play.
func TestFlowPartitionInvariance(t *testing.T) {
	const clients, nodes = 3, 3
	run := func(sizes []int) (wire []arrival, latencies []float64) {
		sched := sim.New(11)
		net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(5 * time.Millisecond)})
		pool := make([]simnet.NodeID, nodes)
		acks := make([]*ackNode, nodes)
		for i := range acks {
			// Node 2 answers after the retry deadline, so every transaction
			// it serves is retried towards it at least once.
			acks[i] = &ackNode{delay: 10 * time.Millisecond}
			pool[i] = simnet.NodeID(i)
			net.AddNode(pool[i], acks[i])
		}
		acks[2].delay = 3500 * time.Millisecond
		var flows []*FlowClient
		start := 0
		for i, k := range sizes {
			fl, err := workload.NewFlow(uint32(start), k, 4, chain.Address(4*start), 4*k, 4*clients,
				sched.RNG(fmt.Sprintf("wl/%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			c := NewFlow(FlowConfig{
				Endpoints: pool, Start: start, Fanout: 2, Rate: 4,
				Stop: 4 * time.Second, RetryAfter: 2 * time.Second,
				VirtualBase: simnet.NodeID(100 + start),
			}, fl)
			flows = append(flows, c)
			net.AddNode(simnet.NodeID(100+i), c)
			start += k
		}
		net.StartAll()
		sched.RunUntil(12 * time.Second)
		for _, c := range flows {
			if c.PendingCount() != 0 {
				t.Fatalf("%d transactions never completed", c.PendingCount())
			}
			latencies = append(latencies, c.Latencies()...)
		}
		slices.Sort(latencies)
		wire = acks[2].resent
		if len(wire) == 0 {
			t.Fatal("no retransmissions reached the slow node")
		}
		return wire, latencies
	}
	oneWire, oneLat := run([]int{3})
	perWire, perLat := run([]int{1, 1, 1})
	if !slices.Equal(oneWire, perWire) {
		t.Fatalf("retransmission sequences diverge:\n one flow  %v\n per-client %v", oneWire, perWire)
	}
	if !slices.Equal(oneLat, perLat) {
		t.Fatalf("latency multisets diverge: %d vs %d samples", len(oneLat), len(perLat))
	}
}
