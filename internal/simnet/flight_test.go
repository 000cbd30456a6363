package simnet

// Tests for broadcast flights: Context.Broadcast against a reference loop of
// Context.Send over randomised fault mixes (sequential and parallel
// kernels), the queue-depth and pool-growth gates, and checkpoints taken
// with flights half-delivered.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"stabl/internal/sim"
	"stabl/internal/snapshot"
)

// arrival is one logged delivery: where it executed in the total event
// order and what it carried.
type arrival struct {
	at       time.Duration
	from, to NodeID
	key      sim.EventKey
	payload  int
}

// mixNode is a scripted handler. Every delivery is logged with its execution
// key; a per-node stream then decides whether to answer with a broadcast, a
// unicast, a same-instant or delayed timer that broadcasts, or a unicast on
// behalf of a virtual sender. With loop set, broadcasts go out as the
// reference implementation: a loop of Send over the peers.
type mixNode struct {
	id     NodeID
	sched  *sim.Scheduler
	peers  []NodeID
	loop   bool
	ctx    *Context
	rng    *rand.Rand
	budget int // reactions left; bounds the run
	sent   int
	ticks  int
	log    []arrival
	// last is the key of the latest arrival executed on this node's queue,
	// shared by the queue's nodes; late counts arrivals that executed after
	// one with a greater key.
	last *sim.EventKey
	late int
}

func (h *mixNode) Start(ctx *Context) {
	h.ctx = ctx
	h.rng = ctx.RNG("mix")
	ctx.Every(40*time.Millisecond+time.Duration(h.id)*time.Millisecond, func() { h.ticks++ })
	ctx.After(time.Duration(h.rng.Intn(20))*time.Millisecond, h.broadcast)
}

func (h *mixNode) Stop() {}

func (h *mixNode) next() int {
	h.sent++
	return int(h.id)*1_000_000 + h.sent
}

func (h *mixNode) broadcast() {
	p := h.next()
	if !h.loop {
		h.ctx.Broadcast(h.peers, p)
		return
	}
	for _, id := range h.peers {
		if id != h.id {
			h.ctx.Send(id, p)
		}
	}
}

func (h *mixNode) Deliver(from NodeID, payload any) {
	key := h.sched.ExecKey(int32(h.id))
	if !h.last.Less(key) {
		h.late++
	}
	*h.last = key
	h.log = append(h.log, arrival{at: h.ctx.Now(), from: from, to: h.id, key: key, payload: payload.(int)})
	if h.budget == 0 {
		return
	}
	h.budget--
	peer := h.peers[h.rng.Intn(len(h.peers))]
	switch r := h.rng.Intn(20); {
	case r < 5:
		h.broadcast()
	case r < 8:
		h.ctx.Send(peer, h.next())
	case r < 10:
		h.ctx.After(0, h.broadcast)
	case r < 12:
		h.ctx.After(time.Duration(1+h.rng.Intn(30))*time.Millisecond, h.broadcast)
	case r < 14:
		h.ctx.SendAs(1000+h.id, peer, h.next())
	}
}

// mixResult is everything two equivalent runs must agree on.
type mixResult struct {
	logs  [][]arrival
	late  int // arrivals executed out of key order on their queue
	ticks []int
	stats Stats
	fired uint64
	// draws holds the next value of every network stream (latency, loss,
	// jitter per endpoint and per virtual sender) and of every handler
	// stream after the run: equal values mean equal draw counts.
	draws []int64
}

// mixRun is one built scenario, steppable so the checkpoint test can stop in
// the middle of it.
type mixRun struct {
	sched *sim.Scheduler
	net   *Network
	hs    []*mixNode
	// flightAt is the instant of the scripted broadcast, the one whose
	// sender and a destination crash while it is partly delivered.
	flightAt time.Duration
	end      time.Duration
}

// coarseLatency samples 5, 10, 15 or 20 ms, so most arrivals of a broadcast
// tie on the instant and only the sequence number orders them.
type coarseLatency struct{}

func (coarseLatency) Sample(_, _ NodeID, rng *rand.Rand) time.Duration {
	return time.Duration(1+rng.Intn(4)) * 5 * time.Millisecond
}

func (coarseLatency) LowerBound() time.Duration { return 5 * time.Millisecond }

// newMixRun builds the scenario of a seed: 8–24 nodes on a 5–25 ms mesh
// (coarse-grained every third seed; the first half of the nodes behind the
// connection layer on odd seeds), loss, jitter
// and extra delay armed and cleared, a partition installed and healed
// mid-run, and a scripted broadcast during which a destination is halted
// and restarted and the sender is halted. workers > 0 runs it on the
// parallel kernel with the last node pinned to the root queue.
func newMixRun(seed int64, workers int, loop bool) *mixRun {
	script := rand.New(rand.NewSource(seed))
	sched := sim.New(seed)
	var lat LatencyModel = UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}
	if seed%3 == 0 {
		lat = coarseLatency{}
	}
	net := New(sched, Config{Latency: lat})
	n := 8 + script.Intn(17)
	peers := make([]NodeID, n)
	for i := range peers {
		peers[i] = NodeID(i)
	}
	r := &mixRun{sched: sched, net: net, end: 1500 * time.Millisecond}
	table := make([]int32, n) // node -> queue; the last node stays on the root queue
	for i := range table[:n-1] {
		table[i] = int32(min(1, workers) + i%max(1, workers))
	}
	last := make([]sim.EventKey, workers+1)
	for i, id := range peers {
		h := &mixNode{id: id, sched: sched, peers: peers, loop: loop, budget: 30, last: &last[table[i]]}
		r.hs = append(r.hs, h)
		net.AddNode(id, h)
	}
	if seed%2 == 1 {
		net.ManageConns(peers[:n/2], ConnParams{
			HeartbeatInterval: 50 * time.Millisecond,
			IdleTimeout:       200 * time.Millisecond,
			ReconnectBase:     100 * time.Millisecond,
			ReconnectCap:      400 * time.Millisecond,
			Multiplier:        2,
			HandshakeTimeout:  100 * time.Millisecond,
		})
	}
	if workers > 0 {
		sched.EnableParallel(table, workers, net.Lookahead())
		net.EnableParallel(table, workers)
	}
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+script.Intn(hi-lo)) * time.Millisecond
	}
	pick := func() NodeID { return NodeID(script.Intn(n)) }

	lossy, jittery, slow := pick(), pick(), pick()
	p, bound, extra := 0.1+0.3*script.Float64(), ms(1, 10), ms(1, 8)
	sched.At(ms(50, 150), func() {
		net.SetLoss(lossy, p)
		net.SetJitter(jittery, bound)
		net.SetExtraDelay(slow, extra)
	})
	sched.At(ms(400, 600), func() {
		net.SetLoss(lossy, 0)
		net.SetJitter(jittery, 0)
	})

	order := script.Perm(n)
	cut := 1 + script.Intn(n-1)
	var sideA, sideB []NodeID
	for i, id := range order {
		if i < cut {
			sideA = append(sideA, NodeID(id))
		} else {
			sideB = append(sideB, NodeID(id))
		}
	}
	partAt := ms(150, 250)
	healAt := partAt + ms(100, 300)
	rule := 0
	sched.At(partAt, func() { rule = net.Partition(sideA, sideB) })
	sched.At(healAt, func() { net.Heal(rule) })

	// The scripted flight: sender and victim sit on the larger side of the
	// partition so the messages exist; 5–25 ms latency leaves the flight
	// partly delivered at each of the instants below.
	side := sideA
	if len(sideB) > len(sideA) {
		side = sideB
	}
	sender, victim := side[0], side[len(side)-1]
	t0 := 300 * time.Millisecond
	r.flightAt = t0
	sched.At(t0, func() { r.hs[sender].broadcast() })
	sched.At(t0+9*time.Millisecond, func() { net.Halt(victim) })
	sched.At(t0+11*time.Millisecond, func() { net.Halt(sender) })
	sched.At(t0+13*time.Millisecond, func() { net.Restart(victim) })
	sched.At(t0+60*time.Millisecond, func() { net.Restart(sender) })

	// Root-context broadcasts keep traffic going once budgets run out.
	for i := 0; i < 12; i++ {
		id := pick()
		sched.At(ms(0, 1400), func() {
			if net.IsUp(id) {
				r.hs[id].broadcast()
			}
		})
	}
	net.StartAll()
	return r
}

// runTo advances in 100 ms slices, so every run makes several RunUntil
// calls.
func (r *mixRun) runTo(deadline time.Duration) {
	for r.sched.Now() < deadline {
		r.sched.RunUntil(min(r.sched.Now()+100*time.Millisecond, deadline))
	}
}

func (r *mixRun) result() mixResult {
	res := mixResult{stats: r.net.Stats(), fired: r.sched.Fired()}
	for _, h := range r.hs {
		res.logs = append(res.logs, h.log)
		res.late += h.late
		res.ticks = append(res.ticks, h.ticks)
		ep := r.net.nodes[h.id]
		res.draws = append(res.draws, ep.lat.Int63(), ep.loss.Int63(), ep.jit.Int63(), h.rng.Int63())
	}
	var virt []NodeID
	for id := range r.net.virt {
		virt = append(virt, id)
	}
	sort.Slice(virt, func(i, j int) bool { return virt[i] < virt[j] })
	for _, id := range virt {
		vs := r.net.virt[id]
		res.draws = append(res.draws, int64(id), vs.lat.Int63(), vs.loss.Int63(), vs.jit.Int63())
	}
	return res
}

func diffMix(t *testing.T, label string, want, got mixResult) {
	t.Helper()
	for i := range want.logs {
		w, g := want.logs[i], got.logs[i]
		for j := 0; j < len(w) && j < len(g); j++ {
			if w[j] != g[j] {
				t.Fatalf("%s: node %d delivery %d: want %+v, got %+v", label, i, j, w[j], g[j])
			}
		}
		if len(w) != len(g) {
			t.Fatalf("%s: node %d got %d deliveries, want %d", label, i, len(g), len(w))
		}
	}
	if got.late != 0 {
		t.Fatalf("%s: %d arrivals executed out of key order", label, got.late)
	}
	if want.stats != got.stats {
		t.Fatalf("%s: stats\nwant %+v\n got %+v", label, want.stats, got.stats)
	}
	if want.fired != got.fired {
		t.Fatalf("%s: fired %d events, want %d", label, got.fired, want.fired)
	}
	if !reflect.DeepEqual(want.ticks, got.ticks) {
		t.Fatalf("%s: ticker counts differ: want %v, got %v", label, want.ticks, got.ticks)
	}
	if !reflect.DeepEqual(want.draws, got.draws) {
		t.Fatalf("%s: RNG streams stand at different positions after the run", label)
	}
}

// TestBroadcastEqualsSendLoop holds Broadcast to its contract: over
// randomised mixes it produces the delivery trace, counters, event count and
// RNG consumption of the reference loop of Send, on the sequential kernel
// and on 1, 2 and 4 parallel queues.
func TestBroadcastEqualsSendLoop(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	var total Stats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := newMixRun(seed, 0, true)
		ref.runTo(ref.end)
		want := ref.result()
		total.add(want.stats)
		for _, workers := range []int{0, 1, 2, 4} {
			for _, loop := range []bool{false, true} {
				if workers == 0 && loop {
					continue
				}
				r := newMixRun(seed, workers, loop)
				r.runTo(r.end)
				diffMix(t, fmt.Sprintf("seed %d workers %d loop %v", seed, workers, loop), want, r.result())
			}
		}
	}
	// The mixes must actually reach every drop rule, or the equivalence
	// above says little.
	if total.Delivered == 0 || total.DroppedPartition == 0 || total.DroppedNodeDown == 0 ||
		total.DroppedInFlight == 0 || total.DroppedLoss == 0 || total.DroppedConnDown == 0 {
		t.Fatalf("mixes left a path unexercised: %+v", total)
	}
}

// halfDelivered counts pooled flights that have delivered to some but not
// all of their destinations.
func halfDelivered(net *Network) int {
	c := 0
	for _, f := range net.flights[0].all {
		if f.cur > 0 && f.cur < len(f.dests) {
			c++
		}
	}
	return c
}

// mixNodeState is a mixNode's checkpoint; log is append-only, so its length
// rewinds it.
type mixNodeState struct {
	rng                     *rand.Rand
	budget, sent, ticks, ln int
	last                    sim.EventKey
}

// TestSnapshotWithFlightsHalfDelivered checkpoints the network while
// broadcasts are partly delivered, runs on, restores and runs again: both
// continuations must equal the uninterrupted run, and flights allocated
// after the checkpoint must drop out of the pool registry.
func TestSnapshotWithFlightsHalfDelivered(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		whole := newMixRun(seed, 0, false)
		whole.runTo(whole.end)
		want := whole.result()

		r := newMixRun(seed, 0, false)
		r.runTo(r.flightAt)
		for halfDelivered(r.net) == 0 {
			if r.sched.Now() > r.flightAt+25*time.Millisecond {
				t.Fatalf("seed %d: the scripted flight was never half-delivered", seed)
			}
			r.runTo(r.sched.Now() + time.Millisecond)
		}
		states := []snapshot.State{r.sched.Snapshot(), r.net.Snapshot()}
		nodes := make([]mixNodeState, len(r.hs))
		for i, h := range r.hs {
			nodes[i] = mixNodeState{rng: h.rng, budget: h.budget, sent: h.sent, ticks: h.ticks, ln: len(h.log), last: *h.last}
		}
		pooled := len(r.net.flights[0].all)

		r.runTo(r.end)
		// result() draws from the streams; the restore below rewinds them.
		diffMix(t, fmt.Sprintf("seed %d first continuation", seed), want, r.result())

		r.sched.Restore(states[0])
		r.net.Restore(states[1])
		for i, h := range r.hs {
			st := nodes[i]
			h.rng, h.budget, h.sent, h.ticks, h.log = st.rng, st.budget, st.sent, st.ticks, h.log[:st.ln]
			*h.last = st.last
		}
		if got := len(r.net.flights[0].all); got != pooled {
			t.Fatalf("seed %d: flight registry holds %d flights after restore, want %d", seed, got, pooled)
		}
		r.runTo(r.end)
		diffMix(t, fmt.Sprintf("seed %d restored continuation", seed), want, r.result())
	}
}

// countNode counts deliveries and allocates nothing.
type countNode struct {
	ctx *Context
	got *int
}

func (h *countNode) Start(ctx *Context)     { h.ctx = ctx }
func (h *countNode) Deliver(NodeID, any)    { *h.got++ }
func (h *countNode) Stop()                  {}
func (h *countNode) tick()                  {}
func (h *countNode) arm(each time.Duration) { h.ctx.Every(each, h.tick) }

func countNet(n int) (*sim.Scheduler, *Network, []*countNode, []NodeID, *int) {
	sched := sim.New(3)
	net := New(sched, Config{Latency: UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}})
	hs := make([]*countNode, n)
	peers := make([]NodeID, n)
	got := new(int)
	for i := range hs {
		hs[i] = &countNode{got: got}
		peers[i] = NodeID(i)
		net.AddNode(peers[i], hs[i])
	}
	net.StartAll()
	return sched, net, hs, peers, got
}

// TestQueueDepthIsBroadcastsNotDestinations is the count gate on the
// scale-mesh shape: 1024 broadcasts to 2047 peers each, all in flight at
// once, never queue more than one event per broadcast on top of the
// standing timers — at any step.
func TestQueueDepthIsBroadcastsNotDestinations(t *testing.T) {
	nodes, broadcasts := 2048, 1024
	if testing.Short() {
		nodes, broadcasts = 256, 128
	}
	sched, net, hs, peers, got := countNet(nodes)
	for _, h := range hs {
		h.arm(time.Second)
	}
	for i := 0; i < broadcasts; i++ {
		hs[i].ctx.Broadcast(peers, i)
	}
	limit := broadcasts + nodes
	want := broadcasts * (nodes - 1)
	for *got < want {
		if p := sched.Pending(); p > limit {
			t.Fatalf("%d events pending after %d deliveries; %d broadcasts + %d timers allow %d",
				p, *got, broadcasts, nodes, limit)
		}
		if !sched.Step() {
			t.Fatalf("queue drained after %d of %d deliveries", *got, want)
		}
	}
	if s := net.Stats(); s.Sent != uint64(want) || s.Delivered != uint64(want) {
		t.Fatalf("stats %+v, want %d sent and delivered", s, want)
	}
	if pooled := len(net.flights[0].all); pooled != broadcasts {
		t.Fatalf("%d flights pooled for %d concurrent broadcasts", pooled, broadcasts)
	}
}

// TestFlightPoolReuse checks steady-state broadcasting recycles flights: the
// pool stops growing after warm-up and a broadcast then allocates nothing,
// reentrant broadcasts from inside Deliver included.
func TestFlightPoolReuse(t *testing.T) {
	sched, net, hs, peers, _ := countNet(64)
	var payload any = "tx"
	round := func() {
		for i := 0; i < 8; i++ {
			hs[i].ctx.Broadcast(peers, payload)
		}
		sched.RunUntil(sched.Now() + 10*time.Millisecond) // overlaps the next round's flights
	}
	for i := 0; i < 10; i++ {
		round()
	}
	pooled := len(net.flights[0].all)
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state broadcast round allocates %.1f objects, want 0", allocs)
	}
	if got := len(net.flights[0].all); got != pooled {
		t.Fatalf("flight pool grew from %d to %d in steady state", pooled, got)
	}

	// Reentrancy: a node that rebroadcasts from inside Deliver may be handed
	// the flight whose last delivery it is executing.
	sched2 := sim.New(1)
	net2 := New(sched2, Config{Latency: FixedLatency(time.Millisecond)})
	a, b := &echoHandler{}, &relayHandler{peers: []NodeID{0, 1}}
	net2.AddNode(0, a)
	net2.AddNode(1, b)
	net2.StartAll()
	for i := 0; i < 100; i++ {
		a.ctx.Broadcast(b.peers, i)
		sched2.RunUntil(sched2.Now() + 10*time.Millisecond)
	}
	if len(a.received) != 100 {
		t.Fatalf("relayed %d of 100 broadcasts", len(a.received))
	}
	for i, p := range a.received {
		if p != i {
			t.Fatalf("relay %d carried %v", i, p)
		}
	}
	if got := len(net2.flights[0].all); got > 2 {
		t.Fatalf("flight pool grew to %d under serial traffic", got)
	}
}

// relayHandler rebroadcasts every message from inside Deliver.
type relayHandler struct {
	ctx   *Context
	peers []NodeID
}

func (h *relayHandler) Start(ctx *Context)      { h.ctx = ctx }
func (h *relayHandler) Deliver(_ NodeID, p any) { h.ctx.Broadcast(h.peers, p) }
func (h *relayHandler) Stop()                   {}
