package simnet

// Tests for flights, the one in-flight message representation:
// Context.Broadcast and loops of Context.Send (flights of many and of one)
// against a reference unicast that owns no pool (refSend) over randomised
// fault mixes on the sequential and parallel kernels, the queue-depth and
// pool-growth gates, and checkpoints taken with flights in flight.

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

// sendMode is how a mixNode puts its messages on the network.
type sendMode int

const (
	viaBroadcast sendMode = iota // Broadcast; Send and SendAs for unicasts
	viaSendLoop                  // every broadcast a loop of Send: flights of one
	viaRef                       // every message a refSend; sequential kernel only
)

// refSend is the reference unicast the flights are held to: the send-time
// half every message shares (route), then one fresh keyed closure per
// message that calls arrive — no pool, no flight, no outbox (so it cannot
// cross partitions inside a window). A virtual sender other than the node
// itself draws from its own streams, as SendAs does.
func refSend(c *Context, virtual, to NodeID, payload any) {
	n, src := c.net, c.ep
	if !src.up {
		return
	}
	lat, loss, jit := src.lat, src.loss, src.jit
	if virtual != src.id {
		vs := n.virtual(virtual)
		lat, loss, jit = vs.lat, vs.loss, vs.jit
	}
	dst, at, seq, ok := n.route(src, to, lat, loss, jit)
	if !ok {
		return
	}
	inc := dst.incarnation
	n.sched.ScheduleKeyed(int32(to), int32(src.id), seq, at, func() { n.arrive(dst, src.id, payload, inc, dst.qi) })
}

// mixNode is a scripted handler. Every delivery is logged with its execution
// key; a per-node stream then decides whether to answer with a broadcast, a
// unicast, a same-instant or delayed timer that broadcasts, or a unicast on
// behalf of a virtual sender, all sent the mode's way.
type mixNode struct {
	id     NodeID
	sched  *sim.Scheduler
	peers  []NodeID
	mode   sendMode
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
	if h.mode == viaBroadcast {
		h.ctx.Broadcast(h.peers, p)
		return
	}
	for _, id := range h.peers {
		if id != h.id {
			h.sendAs(h.id, id, p)
		}
	}
}

func (h *mixNode) sendAs(virtual, to NodeID, p int) {
	if h.mode == viaRef {
		refSend(h.ctx, virtual, to, p)
	} else {
		h.ctx.SendAs(virtual, to, p)
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
		h.sendAs(h.id, peer, h.next())
	case r < 10:
		h.ctx.After(0, h.broadcast)
	case r < 12:
		h.ctx.After(time.Duration(1+h.rng.Intn(30))*time.Millisecond, h.broadcast)
	case r < 14:
		h.sendAs(1000+h.id, peer, h.next())
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
func newMixRun(seed int64, workers int, mode sendMode) *mixRun {
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
		h := &mixNode{id: id, sched: sched, peers: peers, mode: mode, budget: 30, last: &last[table[i]]}
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
	// partly delivered at each of the instants below. Unicasts to the same
	// side go out beside it.
	side := sideA
	if len(sideB) > len(sideA) {
		side = sideB
	}
	sender, victim := side[0], side[len(side)-1]
	t0 := 300 * time.Millisecond
	r.flightAt = t0
	sched.At(t0, func() {
		h := r.hs[sender]
		h.broadcast()
		for _, id := range side[1:] {
			h.sendAs(sender, id, h.next())
		}
	})
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

// TestBroadcastEqualsSendLoop holds flights of many (Broadcast) and flights
// of one (loops of Send) to the reference unicast: over randomised mixes both
// produce refSend's delivery trace, counters, event count and RNG
// consumption, on the sequential kernel and on 1, 2 and 4 parallel queues.
func TestBroadcastEqualsSendLoop(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	var total Stats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := newMixRun(seed, 0, viaRef)
		ref.runTo(ref.end)
		want := ref.result()
		total.add(want.stats)
		for _, workers := range []int{0, 1, 2, 4} {
			for _, mode := range []sendMode{viaBroadcast, viaSendLoop} {
				r := newMixRun(seed, workers, mode)
				r.runTo(r.end)
				diffMix(t, fmt.Sprintf("seed %d workers %d mode %d", seed, workers, mode), want, r.result())
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

// inFlight counts the pooled flights still in flight by shape: broadcasts
// delivered to some but not all destinations, application flights of one,
// and connection control messages.
func inFlight(net *Network) (half, single, control int) {
	for _, f := range net.flights[0].all {
		switch {
		case int(f.cur) == len(f.dests): // free
		case f.control:
			control++
		case len(f.dests) == 1:
			single++
		case f.cur > 0:
			half++
		}
	}
	return half, single, control
}

// mixNodeState is a mixNode's checkpoint; log is append-only, so its length
// rewinds it.
type mixNodeState struct {
	rng                     *rand.Rand
	budget, sent, ticks, ln int
	last                    sim.EventKey
}

// TestSnapshotWithFlightsHalfDelivered checkpoints the network while a
// broadcast is partly delivered and unicasts — and, with the connection
// layer on, control messages — are in flight, runs on, restores and runs
// again: both continuations must equal the uninterrupted run, and flights
// allocated after the checkpoint must drop out of the pool registry.
func TestSnapshotWithFlightsHalfDelivered(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		whole := newMixRun(seed, 0, viaBroadcast)
		whole.runTo(whole.end)
		want := whole.result()

		r := newMixRun(seed, 0, viaBroadcast)
		r.runTo(r.flightAt)
		for {
			half, single, control := inFlight(r.net)
			if half > 0 && single > 0 && (control > 0 || r.net.conns == nil) {
				break
			}
			if r.sched.Now() > r.flightAt+25*time.Millisecond {
				t.Fatalf("seed %d: never a half-delivered broadcast beside unicast and control flights", seed)
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

func countNet(n int, lat LatencyModel) (*sim.Scheduler, *Network, []*countNode, []NodeID, *int) {
	sched := sim.New(3)
	net := New(sched, Config{Latency: lat})
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
	sched, net, hs, peers, got := countNet(nodes, UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond})
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

// TestFlightPoolReuse checks steady-state traffic recycles flights: after
// warm-up a round of Send, SendAs, Broadcast and connection heartbeats
// allocates nothing and the pool stops growing, and a rebroadcast from
// inside Deliver may reuse the flight it is executing.
func TestFlightPoolReuse(t *testing.T) {
	// A fixed latency keeps the number of messages in flight periodic, so
	// the pool reaches its final size during warm-up.
	sched, net, hs, peers, _ := countNet(64, FixedLatency(15*time.Millisecond))
	net.ManageConns(peers[:32], ConnParams{HeartbeatInterval: 10 * time.Millisecond, IdleTimeout: time.Hour})
	var payload any = "tx"
	round := func() {
		for i := 0; i < 8; i++ {
			hs[i].ctx.Broadcast(peers, payload)
			hs[i].ctx.Send(peers[63-i], payload)
			hs[i].ctx.SendAs(1000+NodeID(i), peers[31-i], payload)
		}
		sched.RunUntil(sched.Now() + 10*time.Millisecond) // overlaps the next round's flights
	}
	for i := 0; i < 10; i++ {
		round()
	}
	pooled := len(net.flights[0].all)
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state round allocates %.1f objects, want 0", allocs)
	}
	if got := len(net.flights[0].all); got != pooled {
		t.Fatalf("flight pool grew from %d to %d in steady state", pooled, got)
	}

	checkRelayReuse(t, true)
}

// TestDeliveryPoolReuse checks a unicast delivery is a pooled flight of one:
// a reply sent from inside Deliver may reuse the flight it is executing, and
// serial traffic keeps the pool at its floor.
func TestDeliveryPoolReuse(t *testing.T) {
	checkRelayReuse(t, false)
}

// checkRelayReuse sends 100 messages one at a time to a relayHandler that
// passes each back from inside Deliver, and checks every relay arrives in
// order while the flight pool stays at most two deep.
func checkRelayReuse(t *testing.T, broadcast bool) {
	t.Helper()
	sched := sim.New(1)
	net := New(sched, Config{Latency: FixedLatency(time.Millisecond)})
	a, b := &echoHandler{}, &relayHandler{peers: []NodeID{0, 1}, broadcast: broadcast}
	net.AddNode(0, a)
	net.AddNode(1, b)
	net.StartAll()
	for i := 0; i < 100; i++ {
		a.ctx.Send(1, i)
		sched.RunUntil(sched.Now() + 10*time.Millisecond)
	}
	if len(a.received) != 100 {
		t.Fatalf("broadcast %v: relayed %d of 100 messages", broadcast, len(a.received))
	}
	for i, p := range a.received {
		if p != i {
			t.Fatalf("broadcast %v: relay %d carried %v", broadcast, i, p)
		}
	}
	if got := len(net.flights[0].all); got > 2 {
		t.Fatalf("broadcast %v: flight pool grew to %d under serial traffic", broadcast, got)
	}
}

// relayHandler passes every message back from inside Deliver, as a
// broadcast to peers or a unicast to the sender.
type relayHandler struct {
	ctx       *Context
	peers     []NodeID
	broadcast bool
}

func (h *relayHandler) Start(ctx *Context) { h.ctx = ctx }
func (h *relayHandler) Deliver(from NodeID, p any) {
	if h.broadcast {
		h.ctx.Broadcast(h.peers, p)
	} else {
		h.ctx.Send(from, p)
	}
}
func (h *relayHandler) Stop() {}
