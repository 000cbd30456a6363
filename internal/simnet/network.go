// Package simnet provides the simulated network substrate STABL experiments
// run on: named endpoints exchanging opaque payloads over links with
// configurable latency, send-time partition rules, node crash/restart with
// incarnation fencing, and an optional TCP-like connection layer whose
// heartbeat/reconnect timers reproduce the partition-recovery behaviour of
// real blockchain deployments.
//
// The send path is the hottest code in every experiment, so it is built for
// constant-time checks: endpoints live in a dense slice keyed by NodeID,
// partitions maintain a blocked-pair count map updated on Partition/Heal
// (Blocked is O(1) per message instead of scanning every rule), netem-style
// extra delays use a dense slice with a non-zero counter, and every message
// in flight — a unicast, a broadcast, a connection control message — is one
// pooled, sorted flight that is itself the queued sim.Event: one event at a
// time however many destinations it has, and no closure per message (see
// flight).
//
// The network is also where the parallel kernel's ownership discipline
// lives (see sim's parallel mode): every delay/loss/jitter draw comes from
// the *sender's* private RNG streams, a message's ordering key is assigned
// at send time from the sender's lane counter, and flights bound for another
// partition inside a lookahead window are parked per queue and re-homed at
// the next barrier. Node lifecycle and degradation mutators are
// barrier-only.
package simnet

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"stabl/internal/sim"
)

// NodeID identifies an endpoint on the network. Blockchain validators,
// clients, observers and the experiment primary are all endpoints. IDs must
// be small non-negative integers: they index dense per-node tables.
type NodeID int

// String implements fmt.Stringer.
func (id NodeID) String() string { return fmt.Sprintf("n%d", int(id)) }

// Handler is the application logic attached to an endpoint.
//
// Start is invoked once when the network boots and again after every
// Restart. A validator's Start replaces its state struct in one assignment
// that keeps only the embedded durable part (the ledger lives outside it),
// then re-arms its timers. Stop is invoked when the node is halted.
type Handler interface {
	Start(ctx *Context)
	Deliver(from NodeID, payload any)
	Stop()
}

// LatencyModel samples a one-way message delay for a (from, to) pair.
type LatencyModel interface {
	Sample(from, to NodeID, rng *rand.Rand) time.Duration
}

// DelayLowerBound is implemented by latency models that can state a static,
// positive lower bound on every delay they will ever sample. The parallel
// kernel derives its lookahead from it; models without the method (or with
// a zero bound) force the sequential kernel.
type DelayLowerBound interface {
	LowerBound() time.Duration
}

// UniformLatency samples uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

var _ LatencyModel = UniformLatency{}

// Sample implements LatencyModel.
func (u UniformLatency) Sample(_, _ NodeID, rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// LowerBound implements DelayLowerBound.
func (u UniformLatency) LowerBound() time.Duration { return u.Min }

// FixedLatency returns the same delay for every message; useful in tests.
type FixedLatency time.Duration

var _ LatencyModel = FixedLatency(0)

// Sample implements LatencyModel.
func (f FixedLatency) Sample(_, _ NodeID, _ *rand.Rand) time.Duration {
	return time.Duration(f)
}

// LowerBound implements DelayLowerBound.
func (f FixedLatency) LowerBound() time.Duration { return time.Duration(f) }

// Stats counts network-level activity; useful for tests and ablations.
type Stats struct {
	Sent              uint64
	Delivered         uint64
	DroppedPartition  uint64
	DroppedConnDown   uint64
	DroppedNodeDown   uint64
	DroppedInFlight   uint64
	DroppedSenderDown uint64
	DroppedLoss       uint64
}

// add accumulates b into a; all counters are commutative sums, so shard
// order never shows in the total.
func (a *Stats) add(b Stats) {
	a.Sent += b.Sent
	a.Delivered += b.Delivered
	a.DroppedPartition += b.DroppedPartition
	a.DroppedConnDown += b.DroppedConnDown
	a.DroppedNodeDown += b.DroppedNodeDown
	a.DroppedInFlight += b.DroppedInFlight
	a.DroppedSenderDown += b.DroppedSenderDown
	a.DroppedLoss += b.DroppedLoss
}

// Dropped sums every drop counter.
func (a Stats) Dropped() uint64 {
	return a.DroppedPartition + a.DroppedConnDown + a.DroppedNodeDown +
		a.DroppedInFlight + a.DroppedSenderDown + a.DroppedLoss
}

// Config parameterizes a Network.
type Config struct {
	// Latency models one-way delays; defaults to a 5-25 ms uniform link.
	Latency LatencyModel
}

// Network connects endpoints over the simulation scheduler.
type Network struct {
	sched   *sim.Scheduler
	latency LatencyModel
	// nodes is a dense table keyed by NodeID (nil = unregistered); ids
	// lists registered ids, kept sorted lazily for StartAll.
	nodes []*endpoint
	//stabl:nodet snapshot-fields -- topology is fixed before Start; every fork shares the registration set
	ids []NodeID
	//stabl:nodet snapshot-fields -- derived from ids; re-established lazily by StartAll
	idsSorted bool
	conns     *connManager
	// statsh shards the counters by executing queue so concurrent
	// partitions never write the same word; Stats() sums the shards.
	// Sequential mode holds exactly one shard.
	statsh []Stats
	//stabl:nodet snapshot-fields -- identity-preserved attachment set before Start, not simulated state
	tracer Tracer
	// flights[qi] pools flights per queue so a message in steady state
	// schedules no new closure, and so concurrent partitions never share a
	// free list. Sequential mode uses flights[0] only.
	flights []fpool
	// outbox[qi] parks the flights queue qi built for other partitions
	// inside a lookahead window; a barrier hook re-homes them (keys were
	// already assigned at send time, so injection order is irrelevant).
	//stabl:nodet snapshot-fields -- parallel-mode only; drained at every barrier, and a parallel network never forks
	outbox [][]*flight
	virtMu sync.RWMutex
	netState
}

// netState is what the Network itself mutates after Start (endpoints, pooled
// events and connection pairs carry their own states), and that part of its
// checkpoint.
type netState struct {
	rules   map[int]partitionRule // rule pair lists are immutable after Partition
	ruleSeq int
	// blockedPairs counts, per unordered node pair, how many active rules
	// separate the pair; maintained by Partition/Heal so the per-message
	// Blocked check is a single map probe (skipped entirely when empty).
	blockedPairs map[pairKey]int
	// extraDelay models netem-style per-interface latency injection:
	// every message entering or leaving the node is delayed. Dense by
	// NodeID; extraDelayed counts non-zero entries so the common case
	// costs one comparison.
	extraDelay   []time.Duration
	extraDelayed int
	// lossRate / jitterBound model netem-style per-interface degradation:
	// a message crossing a lossy interface is dropped with the interface's
	// probability (both endpoints combine independently), and a jittery
	// interface adds a uniform extra delay in [0, bound]. Dense by NodeID
	// with non-zero counters, mirroring extraDelay: when no interface is
	// degraded the send fast path pays exactly one integer comparison per
	// feature and draws nothing from the degradation RNG streams, so
	// loss=0/jitter=0 runs are bit-for-bit identical to a kernel without
	// the feature.
	lossRate     []float64
	lossyIfaces  int
	jitterBound  []time.Duration
	jitterIfaces int
	// virt lazily holds degradation streams for virtual sender ids (see
	// Context.SendAs): a flow node submitting on behalf of a client it
	// models draws latency/loss/jitter from the member's own streams — the
	// names a one-client-per-node layout registers — so the trajectory is
	// byte-identical however the clients are aggregated.
	// Created on first use: a million modeled clients that never tick cost
	// nothing. Network.virtMu guards the map (flow nodes in different
	// partitions may fault streams in concurrently); each virtual id is
	// consumed by exactly one flow node, so the streams themselves stay
	// single-threaded. A checkpoint keeps which streams existed: the ones
	// created after it drop out of the scheduler's registry on Restore, and
	// replayed sends re-derive identical fresh streams on first use.
	virt map[NodeID]*virtStreams
}

// virtStreams are the sender-side degradation streams of a virtual node id.
type virtStreams struct {
	lat, loss, jit *rand.Rand
}

// fpool is one queue's flight pool: the free flights, the registry of every
// flight ever allocated (creation order), which Snapshot/Restore rewinds,
// and the staging row of the broadcast currently being built by an event of
// this queue: stage[q] is the sub-flight collecting the destinations queue q
// owns. Every stage entry is nil between broadcasts. owned counts the
// endpoints the queue executes, the most destinations one broadcast can
// stage for it; tmp is the broadcast sort's scratch buffer.
//
// Free flights are kept apart by destination capacity (see class) — free[0]
// holds room for one, free[1] for fewer than radixMin or none, free[2] the
// large arrays — so a broadcast reuses an array a broadcast sized and a unicast
// does not take it from it: drawn from one list, the two would trade arrays
// and reallocate them for ever.
//
// The large arrays a pool keeps follow what its traffic needed at once:
// busy counts the flights out of the pool holding one, idle the length of
// free[2]; a busy period lasts while busy > 0, peak is its most at once and
// last and prev the two periods' before. hold keeps busy+idle within the
// largest of the three, so steady waves of broadcasts keep their arrays
// (a unicast borrowing one between waves is a period of its own) and a
// one-off burst's go to the GC two periods on, their flights to free[1].
type fpool struct {
	free             [3]*flight
	idle, busy       int
	peak, last, prev int
	all              []*flight
	stage            []*flight
	owned            int
	tmp              []flightDest
}

// class is the free list a flight whose destination array has capacity c
// returns to; a flight without an array is wide.
func class(c int) int {
	switch {
	case c >= radixMin:
		return 2
	case c == 1:
		return 0
	}
	return 1
}

// large is 1 when f holds a large destination array (class 2), else 0.
func large(f *flight) int { return class(cap(f.dests)) / 2 }

// hold adds d to the large flights in flight, closes the busy period when
// none is left, and drops idle large arrays, the newest first, while the
// pool holds more than its periods' bound (see fpool). A flight that lost
// its array goes on the wide list: a broadcast sizes an array for it
// anyway, a unicast would not.
func (p *fpool) hold(d int) {
	p.busy += d
	if p.busy > p.peak {
		p.peak = p.busy
	} else if p.busy == 0 && p.peak > 0 {
		p.prev, p.last, p.peak = p.last, p.peak, 0
	}
	for p.idle > 0 && p.idle+p.busy > max(p.peak, p.last, p.prev) {
		f := p.free[2]
		p.free[2], p.idle = f.next, p.idle-1
		f.dests = nil
		f.next, p.free[1] = p.free[1], f
	}
}

type endpoint struct {
	id      NodeID
	handler Handler
	qi      int32 // owning partition queue (0 = root; see EnableParallel)
	ctx     *Context
	epState
	// Sender-owned degradation streams: every delay, loss and jitter draw
	// for a message is made by its sender, from streams only the sender's
	// execution context touches. Derived per node so draw order — and with
	// it the whole trajectory — is identical for any worker count.
	lat  *rand.Rand
	loss *rand.Rand
	jit  *rand.Rand
}

// epState is an endpoint's mutable state. The endpoint object (and its
// Context) is identity-preserved: queued timer closures hold the pointer,
// so Restore writes through it.
type epState struct {
	up          bool
	connRank    int32 // 1 + rank in the managed peer list; zero outside the connection layer
	incarnation uint64
}

// partitionRule remembers the cross pairs it contributed to blockedPairs so
// Heal can retract exactly those counts.
type partitionRule struct {
	pairs []pairKey
}

// New creates a network on the given scheduler.
func New(sched *sim.Scheduler, cfg Config) *Network {
	lat := cfg.Latency
	if lat == nil {
		lat = UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}
	}
	return &Network{
		sched:   sched,
		latency: lat,
		statsh:  make([]Stats, 1),
		flights: []fpool{{stage: make([]*flight, 1)}},
		netState: netState{
			rules:        make(map[int]partitionRule),
			blockedPairs: make(map[pairKey]int),
		},
	}
}

// Scheduler returns the underlying scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Stats returns a snapshot of network counters, summed over all shards.
func (n *Network) Stats() Stats {
	s := n.statsh[0]
	for _, sh := range n.statsh[1:] {
		s.add(sh)
	}
	return s
}

// CheckConservation is the message-conservation oracle: every application
// message sent was delivered, was dropped, or is still in flight — an
// undelivered destination of an application flight, armed or parked in an
// outbox. Connection-layer control flights are neither sent nor in flight in
// this count. It returns an error naming the four numbers when the identity
// fails, which a queue that lost or duplicated an event would make it do.
// Call it between events.
func (n *Network) CheckConservation() error {
	st := n.Stats()
	var inFlight uint64
	for i := range n.flights {
		for _, f := range n.flights[i].all {
			if !f.control {
				inFlight += uint64(len(f.dests) - int(f.cur))
			}
		}
	}
	if st.Sent == st.Delivered+st.Dropped()+inFlight {
		return nil
	}
	return fmt.Errorf("message conservation: sent %d != delivered %d + dropped %d + in flight %d",
		st.Sent, st.Delivered, st.Dropped(), inFlight)
}

// Lookahead returns the static lower bound of the configured latency model,
// or 0 when the model cannot state one. A positive lookahead is what makes
// the conservative parallel kernel applicable: injected extra delay and
// jitter only ever add to a sampled delay, and loss only drops messages, so
// the bound survives every degradation primitive.
func (n *Network) Lookahead() time.Duration {
	if lb, ok := n.latency.(DelayLowerBound); ok {
		if d := lb.LowerBound(); d > 0 {
			return d
		}
	}
	return 0
}

// EnableParallel adopts a partition plan (see internal/parsim): queueOf maps
// every node id to the sim queue that owns it. Must be called after all
// AddNode calls and together with the scheduler's EnableParallel, before
// StartAll. Registers the cross-partition outbox flush as a barrier hook.
func (n *Network) EnableParallel(queueOf []int32, workers int) {
	if len(n.flights) > 1 {
		panic("simnet: EnableParallel called twice")
	}
	for i := 0; i < workers; i++ {
		n.statsh = append(n.statsh, Stats{})
		n.flights = append(n.flights, fpool{})
	}
	n.flights[0].owned = 0
	for _, ep := range n.nodes {
		if ep == nil {
			continue
		}
		if int(ep.id) < len(queueOf) {
			ep.qi = queueOf[ep.id]
		}
		n.flights[ep.qi].owned++
	}
	for i := range n.flights {
		n.flights[i].stage = make([]*flight, workers+1)
	}
	n.outbox = make([][]*flight, workers+1)
	n.sched.OnBarrier(n.flushOutboxes)
}

// barrierOnly guards the mutators that touch state every partition reads
// (liveness, partitions, degradation): they may only run from the root
// execution context — observers, scenario scripts, setup — never from a
// partition event inside a window.
func (n *Network) barrierOnly(op string) {
	if n.sched.InWindow() {
		panic("simnet: " + op + " from a partition event")
	}
}

// AddNode registers a handler under id. Nodes start in the down state until
// StartAll or StartNode is called. Adding a duplicate id is a programming
// error and panics, as is a negative id (ids key dense tables).
func (n *Network) AddNode(id NodeID, h Handler) {
	if id < 0 {
		panic(fmt.Sprintf("simnet: negative node id %v", id))
	}
	if grow := int(id) + 1 - len(n.nodes); grow > 0 { // amortised: n registrations copy O(n) entries
		n.nodes = append(n.nodes, make([]*endpoint, grow)...)
		n.extraDelay = append(n.extraDelay, make([]time.Duration, grow)...)
		n.lossRate = append(n.lossRate, make([]float64, grow)...)
		n.jitterBound = append(n.jitterBound, make([]time.Duration, grow)...)
	}
	if n.nodes[id] != nil {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	n.flights[0].owned++
	ep := &endpoint{id: id, handler: h}
	ep.ctx = &Context{net: n, ep: ep}
	// The degradation streams are tiny (SplitMix64 state), so deriving all
	// three eagerly per node is cheaper than branching on every send.
	ep.lat, ep.loss, ep.jit = n.nodeStream("simnet.latency/n", id, ""), n.nodeStream("simnet.loss/n", id, ""), n.nodeStream("simnet.jitter/n", id, "")
	n.nodes[id] = ep
	n.ids = append(n.ids, id)
	n.idsSorted = len(n.ids) == 1 || (n.idsSorted && id > n.ids[len(n.ids)-2])
}

// Node reports whether id is registered.
func (n *Network) Node(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes) && n.nodes[id] != nil
}

// StartAll boots every registered node that is not already up.
func (n *Network) StartAll() {
	for _, id := range n.sortedIDs() {
		if !n.nodes[id].up {
			n.StartNode(id)
		}
	}
}

// StartNode boots a single node, invoking its handler's Start.
func (n *Network) StartNode(id NodeID) {
	n.barrierOnly("StartNode")
	ep := n.mustNode(id)
	if ep.up {
		return
	}
	restart := ep.incarnation > 0
	ep.up = true
	ep.incarnation++
	detail := "boot"
	if restart {
		detail = "reboot"
	}
	n.trace(TraceEvent{Kind: TraceNodeStart, Node: id, Peer: id, Detail: detail})
	if restart && n.conns != nil {
		n.conns.nodeRestarted(id)
	}
	ep.handler.Start(ep.ctx)
}

// Halt crashes a node: its handler is stopped, its pending timers are fenced
// off, and in-flight messages addressed to it are dropped on arrival.
func (n *Network) Halt(id NodeID) {
	n.barrierOnly("Halt")
	ep := n.mustNode(id)
	if !ep.up {
		return
	}
	ep.up = false
	ep.incarnation++
	n.trace(TraceEvent{Kind: TraceNodeHalt, Node: id, Peer: id})
	ep.handler.Stop()
}

// Restart boots a previously halted node with the same identity: Start is
// called again (see Handler).
func (n *Network) Restart(id NodeID) { n.StartNode(id) }

// IsUp reports whether the node is currently running.
func (n *Network) IsUp(id NodeID) bool { return n.mustNode(id).up }

// Partition installs a bidirectional drop rule between groups a and b,
// returning a rule id for Heal. Rules are evaluated at send time, matching
// STABL's netfilter-based injection: messages sent while the rule is active
// are lost even if the rule is healed before they would have arrived.
func (n *Network) Partition(a, b []NodeID) int {
	n.barrierOnly("Partition")
	rule := partitionRule{pairs: make([]pairKey, 0, len(a)*len(b))}
	for _, x := range a {
		for _, y := range b {
			k := makePair(x, y)
			rule.pairs = append(rule.pairs, k)
			n.blockedPairs[k]++
		}
	}
	n.ruleSeq++
	n.rules[n.ruleSeq] = rule
	if len(a) > 0 {
		n.trace(TraceEvent{Kind: TracePartition, Node: a[0], Peer: a[0],
			Detail: fmt.Sprintf("rule %d: %d vs %d nodes", n.ruleSeq, len(a), len(b))})
	}
	return n.ruleSeq
}

// Heal removes a partition rule installed by Partition.
func (n *Network) Heal(rule int) {
	n.barrierOnly("Heal")
	r, ok := n.rules[rule]
	if !ok {
		return
	}
	n.trace(TraceEvent{Kind: TraceHeal, Detail: fmt.Sprintf("rule %d", rule)})
	for _, k := range r.pairs {
		if c := n.blockedPairs[k]; c <= 1 {
			delete(n.blockedPairs, k)
		} else {
			n.blockedPairs[k] = c - 1
		}
	}
	delete(n.rules, rule)
}

// SetExtraDelay injects (or clears, with 0) additional latency on every
// message to or from a node, modelling tc-netem delay rules on the node's
// interface.
func (n *Network) SetExtraDelay(id NodeID, d time.Duration) {
	n.barrierOnly("SetExtraDelay")
	n.mustNode(id)
	n.trace(TraceEvent{Kind: TraceDelay, Node: id, Peer: id, Detail: d.String()})
	if d < 0 {
		d = 0
	}
	old := n.extraDelay[id]
	switch {
	case old == 0 && d > 0:
		n.extraDelayed++
	case old > 0 && d == 0:
		n.extraDelayed--
	}
	n.extraDelay[id] = d
}

// ExtraDelay returns the injected latency on a node's interface.
func (n *Network) ExtraDelay(id NodeID) time.Duration {
	if int(id) >= len(n.extraDelay) {
		return 0
	}
	return n.extraDelay[id]
}

// SetLoss injects (or clears, with 0) probabilistic packet loss on a node's
// interface, modelling a tc-netem loss rule: every message entering or
// leaving the node is dropped independently with probability p. Values are
// clamped into [0, 1]. Losses are drawn from dedicated RNG streams, so a
// network with every rate at zero replays identically to one that never
// touched the primitive.
func (n *Network) SetLoss(id NodeID, p float64) {
	n.barrierOnly("SetLoss")
	n.mustNode(id)
	switch {
	case p < 0:
		p = 0
	case p > 1:
		p = 1
	}
	n.trace(TraceEvent{Kind: TraceLoss, Node: id, Peer: id, Detail: fmt.Sprintf("p=%g", p)})
	old := n.lossRate[id]
	switch {
	case old == 0 && p > 0:
		n.lossyIfaces++
	case old > 0 && p == 0:
		n.lossyIfaces--
	}
	n.lossRate[id] = p
}

// Loss returns the injected loss probability on a node's interface.
func (n *Network) Loss(id NodeID) float64 {
	if int(id) >= len(n.lossRate) {
		return 0
	}
	return n.lossRate[id]
}

// SetJitter injects (or clears, with 0) bounded latency jitter on a node's
// interface: every message entering or leaving the node is delayed by an
// extra uniform draw from [0, bound], modelling a tc-netem delay-variation
// rule. Jitter draws come from dedicated RNG streams, so bound-zero
// networks replay identically to pre-jitter kernels.
func (n *Network) SetJitter(id NodeID, bound time.Duration) {
	n.barrierOnly("SetJitter")
	n.mustNode(id)
	if bound < 0 {
		bound = 0
	}
	n.trace(TraceEvent{Kind: TraceJitter, Node: id, Peer: id, Detail: bound.String()})
	old := n.jitterBound[id]
	switch {
	case old == 0 && bound > 0:
		n.jitterIfaces++
	case old > 0 && bound == 0:
		n.jitterIfaces--
	}
	n.jitterBound[id] = bound
}

// Jitter returns the injected jitter bound on a node's interface.
func (n *Network) Jitter(id NodeID) time.Duration {
	if int(id) >= len(n.jitterBound) {
		return 0
	}
	return n.jitterBound[id]
}

// lost decides whether a message on the (src, to) link is dropped by
// injected loss, drawing from the given sender-owned stream (the physical
// endpoint's, or a virtual member's for SendAs — the rates stay indexed by
// the physical interfaces either way). Callers must gate on n.lossyIfaces so
// the undegraded path never reaches the RNG. The two interface rates combine
// independently, like two netem qdiscs in series.
func (n *Network) lost(src *endpoint, to NodeID, loss *rand.Rand) bool {
	pf, pt := n.lossRate[src.id], n.lossRate[to]
	if pf == 0 && pt == 0 {
		return false
	}
	p := pf + pt - pf*pt
	return loss.Float64() < p
}

// Blocked reports whether a (from, to) pair is currently separated by a
// partition rule. The check is O(1): Partition/Heal maintain the pair
// counts.
func (n *Network) Blocked(from, to NodeID) bool {
	if len(n.blockedPairs) == 0 {
		return false
	}
	return n.blockedPairs[makePair(from, to)] > 0
}

// arrive hands one application message to its destination on queue qi,
// unless the destination crashed or restarted since the send (inc is the
// incarnation recorded then).
func (n *Network) arrive(dst *endpoint, from NodeID, payload any, inc uint64, qi int32) {
	sh := &n.statsh[qi]
	if !dst.up || dst.incarnation != inc {
		sh.DroppedInFlight++
		return
	}
	sh.Delivered++
	if n.conns != nil {
		n.conns.observeTraffic(from, dst.id, n.sched.LaneNow(int32(dst.id)))
	}
	dst.handler.Deliver(from, payload)
}

// flight is a pooled in-flight message: every destination that survived the
// send-time checks, sorted by its sender-assigned event key, behind one
// queued event. A unicast is a flight of one, a broadcast one flight per
// destination queue. A message's key is (at, sender lane, seq) and a
// flight's destinations share the lane, so (at, seq) order is key order. The
// flight is a sim.Event, queued under its first destination's key; Fire
// re-arms it under the next destination's key before delivering, so every
// delivery executes at exactly the position its own queued event would have
// had while the queue holds one entry per flight instead of one per
// destination. A reused flight keeps its destination array — a small one
// always, a large one while the pool's bound lets it (see fpool) — so steady
// traffic allocates nothing on the send path. Each flight belongs to the
// pool of the queue it executes on.
type flight struct {
	n  *Network
	qi int32 // owning pool == executing queue
	flightState
}

// flightState is what a send writes into a pooled flight; next points into
// the identity-preserved flight registry.
type flightState struct {
	from    NodeID
	payload any
	base    uint64       // lane sequence number of seqOff 0
	dests   []flightDest // sorted by (at, seqOff); pointer-free
	cur     int32        // next destination to deliver
	// control marks connection-layer traffic: it executes on the root queue
	// and goes to the connection layer instead of the application handler.
	control bool
	next    *flight // pool free list
}

// unicastFlight is how a flight created for a unicast is allocated: together
// with the array for its one destination, so a fresh flight of one costs one
// allocation.
type unicastFlight struct {
	flight
	one [1]flightDest
}

// flightDest is one destination of a flight: arrival instant, offset of its
// lane sequence number from the flight's base, and the destination's
// incarnation at send time (a restart in between drops the message).
type flightDest struct {
	at     time.Duration
	inc    uint64
	dst    int32
	seqOff uint32
}

// compare orders destinations of one flight by event key: (at, seq).
func (a flightDest) compare(b flightDest) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seqOff, b.seqOff)
}

// newFlight takes a flight from queue qi's pool — from list w (see class),
// else from the others in fallback order — and stamps a message on it.
func (n *Network) newFlight(qi int32, w int, from NodeID, payload any, base uint64, control bool) *flight {
	p := &n.flights[qi]
	var f *flight
	for _, l := range fallback[w] {
		if f = p.free[l]; f != nil {
			p.free[l], f.next = f.next, nil
			if l == 2 {
				p.idle--
			}
			break
		}
	}
	if f == nil {
		if w != 0 {
			f = new(flight)
		} else {
			u := new(unicastFlight)
			f, u.dests = &u.flight, u.one[:0]
		}
		f.n, f.qi = n, qi
		p.all = append(p.all, f)
	}
	if l := large(f); l != 0 {
		p.hold(l)
	}
	f.from, f.payload, f.base, f.control = from, payload, base, control
	return f
}

// fallback[w] is the order newFlight searches the free lists for a flight
// of list w; a unicast never holds a large flight's array.
var fallback = [3][]int{{0, 1}, {1, 2, 0}, {2, 1, 0}}

func (n *Network) freeFlight(f *flight) {
	f.payload = nil
	f.dests = f.dests[:0]
	f.cur = 0
	p := &n.flights[f.qi]
	w := class(cap(f.dests))
	f.next = p.free[w]
	p.free[w] = f
	if w == 2 {
		p.idle++
		p.hold(-1)
	}
}

// arm queues the flight under the key of its next destination, on that
// destination's lane — or on the root queue, for control traffic.
func (f *flight) arm() {
	d := &f.dests[f.cur]
	lane := d.dst
	if f.control {
		lane = -1
	}
	f.n.sched.ScheduleKeyed(lane, int32(f.from), f.base+uint64(d.seqOff), d.at, f)
}

// Fire implements sim.Event: it delivers to the next destination. The
// flight re-arms (or returns to the pool) before the handler runs: the
// re-arm takes the event slot this firing just released, and reentrant
// sends from inside Deliver may reuse a finished flight.
func (f *flight) Fire() {
	n, from, payload, qi, control := f.n, f.from, f.payload, f.qi, f.control
	d := f.dests[f.cur]
	f.cur++
	if int(f.cur) < len(f.dests) {
		f.arm()
	} else {
		n.freeFlight(f)
	}
	if control {
		n.conns.receive(from, n.nodes[d.dst], payload, d.inc)
		return
	}
	n.arrive(n.nodes[d.dst], from, payload, d.inc, qi)
}

// virtual returns the degradation streams of a virtual sender id, creating
// them on first use. The stream names match the ones AddNode registers for a
// physical node of the same id, and stream content depends only on
// (scheduler seed, name), so a flow node sending on behalf of a modeled
// client through these streams draws the exact values that client's own
// endpoint streams would produce were it deployed as a node of its own.
func (n *Network) virtual(id NodeID) *virtStreams {
	n.virtMu.RLock()
	vs := n.virt[id]
	n.virtMu.RUnlock()
	if vs != nil {
		return vs
	}
	n.virtMu.Lock()
	defer n.virtMu.Unlock()
	if vs = n.virt[id]; vs != nil {
		return vs
	}
	vs = &virtStreams{
		lat:  n.nodeStream("simnet.latency/n", id, ""),
		loss: n.nodeStream("simnet.loss/n", id, ""),
		jit:  n.nodeStream("simnet.jitter/n", id, ""),
	}
	if n.virt == nil {
		n.virt = make(map[NodeID]*virtStreams)
	}
	n.virt[id] = vs
	return vs
}

// route is the send-time half of every application message: it accounts the
// send, applies the drop rules (sender down, partition, connection state,
// destination down, injected loss) and, for a message that survives, draws
// its delay from the given sender-owned streams and its ordering key from
// the physical sender's lane counter. Everything about the resulting
// delivery is fixed here, so it is identical no matter which kernel — or
// which partition interleaving — executes it.
func (n *Network) route(src *endpoint, to NodeID, lat, loss, jit *rand.Rand) (dst *endpoint, at time.Duration, seq uint64, ok bool) {
	dst = n.mustNode(to)
	sh := &n.statsh[src.qi]
	sh.Sent++
	if !src.up {
		sh.DroppedSenderDown++
		return
	}
	if n.Blocked(src.id, to) {
		sh.DroppedPartition++
		return
	}
	if n.conns != nil && !n.conns.allowsEp(src, dst) {
		sh.DroppedConnDown++
		return
	}
	if !dst.up {
		sh.DroppedNodeDown++
		return
	}
	if n.lossyIfaces > 0 && n.lost(src, to, loss) {
		sh.DroppedLoss++
		return
	}
	at = n.sched.ContextNow(int32(src.id)) + n.delay(src, to, lat, jit)
	seq = n.sched.TakeLaneSeq(int32(src.id))
	return dst, at, seq, true
}

// send is the unicast path: a flight of one. The streams are the sender's
// own or, for SendAs, the virtual sender's.
func (n *Network) send(src *endpoint, to NodeID, payload any, lat, loss, jit *rand.Rand) {
	dst, at, seq, ok := n.route(src, to, lat, loss, jit)
	if !ok {
		return
	}
	home := dst.qi
	if home != src.qi && n.sched.InWindow() {
		home = src.qi
	}
	f := n.newFlight(home, 0, src.id, payload, seq, false)
	f.dests = append(f.dests, flightDest{at: at, inc: dst.incarnation, dst: int32(to)})
	n.post(f, src.qi, dst.qi)
}

// broadcast is the multicast path: the same per-destination checks and
// draws as a loop of sends, in peer order, but the survivors are collected
// into one flight per destination queue (exactly one in sequential mode)
// instead of one flight each. A staged flight's array is sized once for all
// the destinations its queue can receive.
func (n *Network) broadcast(src *endpoint, peers []NodeID, payload any) {
	pool := &n.flights[src.qi]
	stage := pool.stage
	inWindow := n.sched.InWindow()
	for _, to := range peers {
		if to == src.id {
			continue
		}
		dst, at, seq, ok := n.route(src, to, src.lat, src.loss, src.jit)
		if !ok {
			continue
		}
		f := stage[dst.qi]
		if f == nil {
			home := dst.qi
			if inWindow {
				home = src.qi
			}
			size := min(len(peers), n.flights[dst.qi].owned)
			f = n.newFlight(home, max(1, class(size)), src.id, payload, seq, false)
			if cap(f.dests) < size {
				was := large(f)
				f.dests = make([]flightDest, 0, size)
				n.flights[home].hold(large(f) - was)
			}
			stage[dst.qi] = f
		}
		f.dests = append(f.dests, flightDest{
			at: at, inc: dst.incarnation, dst: int32(to), seqOff: uint32(seq - f.base),
		})
	}
	for qi, f := range stage {
		if f == nil {
			continue
		}
		stage[qi] = nil
		pool.sortDests(f.dests)
		n.post(f, src.qi, int32(qi))
	}
}

// radixMin is the flight size from which sortDests runs its radix passes;
// smaller flights (every 10-node deployment's) take the comparison sort.
const radixMin = 64

// sortDests orders a staged flight's destinations by event key (at, seqOff).
// broadcast appends them in seqOff order, so a stable sort on at alone gives
// exactly that order: equal instants keep their seqOff order, which is the
// tie-break compare applies. From radixMin destinations up that sort is an
// LSD radix sort on at − min(at), in 8-bit digits, which runs only the passes
// the span reaches and skips a digit every destination shares.
func (p *fpool) sortDests(d []flightDest) {
	if len(d) < radixMin {
		slices.SortFunc(d, flightDest.compare)
		return
	}
	lo, hi := d[0].at, d[0].at
	for _, x := range d[1:] {
		lo, hi = min(lo, x.at), max(hi, x.at)
	}
	if cap(p.tmp) < len(d) {
		p.tmp = make([]flightDest, len(d))
	}
	src, dst := d, p.tmp[:len(d)]
	for shift := 0; shift < bits.Len64(uint64(hi-lo)); shift += 8 {
		var pos [256]int
		for _, x := range src {
			pos[uint8(uint64(x.at-lo)>>shift)]++
		}
		if pos[uint8(uint64(src[0].at-lo)>>shift)] == len(src) {
			continue
		}
		sum := 0
		for i, c := range pos {
			pos[i], sum = sum, sum+c
		}
		for _, x := range src {
			k := uint8(uint64(x.at-lo) >> shift)
			dst[pos[k]] = x
			pos[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &d[0] {
		copy(d, src)
	}
}

// post arms a flight bound for queue qi. A flight bound for another
// partition inside a window was built in the sender's own pool instead: it
// is parked in the sender's outbox, and the barrier re-homes it.
func (n *Network) post(f *flight, srcQi, qi int32) {
	if f.qi != qi {
		n.outbox[srcQi] = append(n.outbox[srcQi], f)
		return
	}
	f.arm()
}

// flushOutboxes injects every parked flight into its receiver's queue. Runs
// as a barrier hook with all partitions quiesced; because keys were assigned
// at send time, the per-queue append order the boxes happen to hold carries
// no meaning. A parked flight hands its destination array to a flight of the
// receiving queue's pool and returns to its sender's, with that flight's
// array in exchange; the two pools' large-flight counts trade with the
// arrays.
func (n *Network) flushOutboxes() {
	for qi, box := range n.outbox {
		p := &n.flights[qi]
		for i, f := range box {
			g := n.newFlight(n.nodes[f.dests[0].dst].qi, class(cap(f.dests)), f.from, f.payload, f.base, false)
			d := large(f) - large(g)
			g.dests, f.dests = f.dests, g.dests
			n.flights[g.qi].hold(d)
			p.hold(-d)
			g.arm()
			n.freeFlight(f)
			box[i] = nil
		}
		n.outbox[qi] = box[:0]
	}
}

// delay samples the one-way latency for a message from the given
// sender-owned streams, including any injected interface delays and jitter
// (both indexed by the physical interfaces).
func (n *Network) delay(src *endpoint, to NodeID, lat, jit *rand.Rand) time.Duration {
	d := n.latency.Sample(src.id, to, lat)
	if n.extraDelayed > 0 {
		d += n.extraDelay[src.id] + n.extraDelay[to]
	}
	if n.jitterIfaces > 0 {
		if bound := n.jitterBound[src.id] + n.jitterBound[to]; bound > 0 {
			d += time.Duration(jit.Int63n(int64(bound) + 1))
		}
	}
	return d
}

func (n *Network) mustNode(id NodeID) *endpoint {
	if id >= 0 && int(id) < len(n.nodes) {
		if ep := n.nodes[id]; ep != nil {
			return ep
		}
	}
	panic(fmt.Sprintf("simnet: unknown node %v", id))
}

// sortedIDs returns all registered ids in ascending order. The sorted slice
// is cached and only re-sorted after an out-of-order AddNode.
func (n *Network) sortedIDs() []NodeID {
	if !n.idsSorted {
		sort.Slice(n.ids, func(i, j int) bool { return n.ids[i] < n.ids[j] })
		n.idsSorted = true
	}
	return n.ids
}

// Context is the capability surface handed to a node's handler. All methods
// are only valid while the node is up; timers armed through the context are
// automatically fenced when the node crashes. Context methods are lane-
// aware: time, timers and tickers all live on the node's own queue, so a
// handler written against Context is parallel-safe by construction.
type Context struct {
	net *Network
	ep  *endpoint
}

// ID returns the node's identity.
func (c *Context) ID() NodeID { return c.ep.id }

// Now returns the current virtual time of the node's execution context.
func (c *Context) Now() time.Duration {
	return c.net.sched.ContextNow(int32(c.ep.id))
}

// Send transmits payload to the named peer, subject to partitions,
// connection state and peer liveness.
func (c *Context) Send(to NodeID, payload any) {
	if !c.ep.up {
		return
	}
	c.net.send(c.ep, to, payload, c.ep.lat, c.ep.loss, c.ep.jit)
}

// SendAs transmits payload to the named peer on behalf of a virtual sender
// id: every physical property of the message — ordering lane and sequence,
// stats shard, liveness and partition checks, the from field the receiver
// sees — comes from the real node, but the latency/loss/jitter draws come
// from the virtual id's streams. Flow clients use it so a member consumes
// the same streams whichever flow node carries it (see
// client.FlowConfig.VirtualBase). A node sending as itself is a plain Send:
// its own streams carry the names, hence the values, a virtual twin would.
func (c *Context) SendAs(virtual, to NodeID, payload any) {
	if virtual == c.ep.id {
		c.Send(to, payload)
		return
	}
	if !c.ep.up {
		return
	}
	vs := c.net.virtual(virtual)
	c.net.send(c.ep, to, payload, vs.lat, vs.loss, vs.jit)
}

// Broadcast sends payload to every id in peers except the sender itself.
// The messages are those a loop of Send over peers would produce — same
// drops, same delays, same delivery order — carried by one flight.
func (c *Context) Broadcast(peers []NodeID, payload any) {
	if !c.ep.up {
		return
	}
	c.net.broadcast(c.ep, peers, payload)
}

// After schedules fn on the node's behalf, on the node's own lane. The
// callback is suppressed if the node crashes (or restarts) before it fires.
func (c *Context) After(d time.Duration, fn func()) sim.Timer {
	inc := c.ep.incarnation
	return c.net.sched.AfterLane(int32(c.ep.id), d, func() {
		if c.ep.up && c.ep.incarnation == inc {
			fn()
		}
	})
}

// Every schedules fn at a fixed interval on the node's own lane until the
// returned ticker is stopped or the node crashes.
func (c *Context) Every(interval time.Duration, fn func()) *sim.Ticker {
	inc := c.ep.incarnation
	return sim.NewLaneTicker(c.net.sched, int32(c.ep.id), interval, func() {
		if c.ep.up && c.ep.incarnation == inc {
			fn()
		}
	})
}

// RNG derives a deterministic random stream namespaced to this node: the
// scheduler's stream "node/<id>/<name>". Like sim.Scheduler.RNG, every call
// returns a fresh stream positioned at its start.
func (c *Context) RNG(name string) *rand.Rand { return c.net.nodeStream("node/", c.ep.id, "/"+name) }

// nodeStream derives the scheduler's stream prefix+id+suffix, id in decimal,
// without building the name on the heap.
func (n *Network) nodeStream(prefix string, id NodeID, suffix string) *rand.Rand {
	var buf [64]byte
	b := append(strconv.AppendInt(append(buf[:0], prefix...), int64(id), 10), suffix...)
	return n.sched.RNGFromSeed(n.sched.RNGSeed(string(b)))
}

// Connected reports whether the connection layer currently allows traffic
// from this node to peer (always true when connections are unmanaged).
func (c *Context) Connected(peer NodeID) bool {
	if c.net.conns == nil {
		return true
	}
	return c.net.conns.allows(c.ep.id, peer)
}
