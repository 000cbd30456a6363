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
// extra delays use a dense slice with a non-zero counter, delivery events
// are pooled value-typed closures rather than a fresh closure per message,
// and a broadcast is one pooled, sorted flight — one queued event at a time
// however many destinations it has (see flight).
//
// The network is also where the parallel kernel's ownership discipline
// lives (see sim's parallel mode): every delay/loss/jitter draw comes from
// the *sender's* private RNG streams, a message's ordering key is assigned
// at send time from the sender's lane counter, and cross-partition sends
// inside a lookahead window are buffered per queue and injected at the next
// barrier. Node lifecycle and degradation mutators are barrier-only.
package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
// Restart; implementations must re-arm their volatile state (timers, vote
// tables) there while keeping persistent state (the ledger) across restarts.
// Stop is invoked when the node is halted.
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

// PairDelayLowerBound is implemented by latency models whose bound depends on
// the link: LowerBoundBetween states a static lower bound for one directed
// (from, to) pair. Callers that know which pairs actually exchange messages
// (e.g. an overlay-confined deployment) can minimize over just those pairs
// and hand the tighter horizon to SetLookahead.
type PairDelayLowerBound interface {
	LowerBoundBetween(from, to NodeID) time.Duration
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

// LowerBoundBetween implements PairDelayLowerBound; the bound is pair-uniform.
func (u UniformLatency) LowerBoundBetween(_, _ NodeID) time.Duration { return u.Min }

// FixedLatency returns the same delay for every message; useful in tests.
type FixedLatency time.Duration

var _ LatencyModel = FixedLatency(0)

// Sample implements LatencyModel.
func (f FixedLatency) Sample(_, _ NodeID, _ *rand.Rand) time.Duration {
	return time.Duration(f)
}

// LowerBound implements DelayLowerBound.
func (f FixedLatency) LowerBound() time.Duration { return time.Duration(f) }

// LowerBoundBetween implements PairDelayLowerBound; the bound is pair-uniform.
func (f FixedLatency) LowerBoundBetween(_, _ NodeID) time.Duration { return time.Duration(f) }

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
	// lookahead, when positive, overrides the latency model's global lower
	// bound (see SetLookahead). It must never exceed the true minimum delay
	// of any pair that can actually exchange a message.
	//stabl:nodet snapshot-fields -- configuration set before Start; core.Fork disables parallel mode anyway
	lookahead time.Duration
	// pools[qi] pools delivery events per queue so a message in steady
	// state schedules no new closure, and so concurrent partitions never
	// share a free list. Sequential mode uses pools[0] only.
	pools []dpool
	// flights[qi] pools broadcast flights the same way (see flight).
	flights []fpool
	// outbox[qi] buffers cross-partition sends made by queue qi inside a
	// lookahead window; a barrier hook injects them (keys were already
	// assigned at send time, so injection order is irrelevant).
	//stabl:nodet snapshot-fields -- parallel-mode only; drained at every barrier and cleared by DisableParallel before any fork
	outbox []outbox
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

// dpool is one queue's delivery pool: a free list plus the registry of every
// delivery ever allocated (creation order), which Snapshot/Restore rewinds.
type dpool struct {
	free *delivery
	all  []*delivery
}

// fpool is one queue's flight pool — free list and creation-order registry,
// like dpool — plus the staging row of the broadcast currently being built
// by an event of this queue: stage[q] is the sub-flight collecting the
// destinations queue q owns. Every entry is nil between broadcasts.
type fpool struct {
	free  *flight
	all   []*flight
	stage []*flight
}

// outbox is one queue's buffer of cross-partition sends: unicast messages
// and whole sub-flights of broadcasts.
type outbox struct {
	msgs    []outMsg
	flights []*flight
}

// outMsg is one buffered cross-partition send. The ordering key (at, sender
// lane, seq) was fixed when the send happened; the barrier only moves the
// event into the receiver's queue.
type outMsg struct {
	at      time.Duration
	seq     uint64
	from    NodeID
	dst     *endpoint
	payload any
	inc     uint64
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
// Context) is identity-preserved: queued delivery and timer closures hold
// the pointer, so Restore writes through it.
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
		pools:   make([]dpool, 1),
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

// Lookahead returns the static lower bound of the configured latency model,
// or 0 when the model cannot state one. A positive lookahead is what makes
// the conservative parallel kernel applicable: injected extra delay and
// jitter only ever add to a sampled delay, and loss only drops messages, so
// the bound survives every degradation primitive. A SetLookahead override,
// when present, takes precedence.
func (n *Network) Lookahead() time.Duration {
	if n.lookahead > 0 {
		return n.lookahead
	}
	if lb, ok := n.latency.(DelayLowerBound); ok {
		if d := lb.LowerBound(); d > 0 {
			return d
		}
	}
	return 0
}

// SetLookahead overrides the horizon Lookahead reports. Callers with
// topology knowledge compute it as the minimum of the latency model's
// per-pair bounds (PairDelayLowerBound) over exactly the pairs that can
// exchange messages — a superset assumption is safe, a subset is not. Zero
// restores the model-wide bound. Must be set before EnableParallel's horizon
// is first consumed; the lookahead is part of the simulation contract, so it
// never changes mid-run.
func (n *Network) SetLookahead(d time.Duration) { n.lookahead = d }

// PairLowerBound returns the latency model's static lower bound for one
// directed link, when the model can state per-pair bounds.
func (n *Network) PairLowerBound(from, to NodeID) (time.Duration, bool) {
	if pb, ok := n.latency.(PairDelayLowerBound); ok {
		return pb.LowerBoundBetween(from, to), true
	}
	return 0, false
}

// EnableParallel adopts a partition plan (see internal/parsim): queueOf maps
// every node id to the sim queue that owns it. Must be called after all
// AddNode calls and together with the scheduler's EnableParallel, before
// StartAll. Registers the cross-partition outbox flush as a barrier hook.
func (n *Network) EnableParallel(queueOf []int32, workers int) {
	if len(n.pools) > 1 {
		panic("simnet: EnableParallel called twice")
	}
	for _, ep := range n.nodes {
		if ep == nil {
			continue
		}
		if int(ep.id) < len(queueOf) {
			ep.qi = queueOf[ep.id]
		}
	}
	for i := 0; i < workers; i++ {
		n.statsh = append(n.statsh, Stats{})
		n.pools = append(n.pools, dpool{})
		n.flights = append(n.flights, fpool{})
	}
	for i := range n.flights {
		n.flights[i].stage = make([]*flight, workers+1)
	}
	n.outbox = make([]outbox, workers+1)
	n.sched.OnBarrier(n.flushOutboxes)
}

// DisableParallel reverts to the single-queue layout, the sequential
// fallback the forking API takes before snapshotting. Outboxes must be
// empty (they always are outside a window).
func (n *Network) DisableParallel() {
	if len(n.pools) == 1 {
		return
	}
	for _, box := range n.outbox {
		if len(box.msgs) != 0 || len(box.flights) != 0 {
			panic("simnet: DisableParallel with buffered cross-partition sends")
		}
	}
	for i := 1; i < len(n.statsh); i++ {
		n.statsh[0].add(n.statsh[i])
	}
	n.statsh = n.statsh[:1]
	// Deliveries and flights allocated by partition pools stay owned by
	// them; merging free lists would break the per-pool registries.
	// Pre-start (the only place the fallback runs) no partition pool has
	// allocated anything.
	for _, p := range n.pools[1:] {
		if len(p.all) != 0 {
			panic("simnet: DisableParallel after partition deliveries were pooled")
		}
	}
	for _, p := range n.flights[1:] {
		if len(p.all) != 0 {
			panic("simnet: DisableParallel after partition flights were pooled")
		}
	}
	n.pools = n.pools[:1]
	n.flights = n.flights[:1]
	n.flights[0].stage = n.flights[0].stage[:1]
	n.outbox = nil
	for _, ep := range n.nodes {
		if ep != nil {
			ep.qi = 0
		}
	}
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
	if int(id) >= len(n.nodes) {
		grown := make([]*endpoint, id+1)
		copy(grown, n.nodes)
		n.nodes = grown
		delays := make([]time.Duration, id+1)
		copy(delays, n.extraDelay)
		n.extraDelay = delays
		losses := make([]float64, id+1)
		copy(losses, n.lossRate)
		n.lossRate = losses
		jitters := make([]time.Duration, id+1)
		copy(jitters, n.jitterBound)
		n.jitterBound = jitters
	}
	if n.nodes[id] != nil {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	ep := &endpoint{id: id, handler: h}
	ep.ctx = &Context{net: n, ep: ep}
	// The degradation streams are tiny (SplitMix64 state), so deriving all
	// three eagerly per node is cheaper than branching on every send.
	ep.lat = n.sched.RNG(fmt.Sprintf("simnet.latency/n%d", int(id)))
	ep.loss = n.sched.RNG(fmt.Sprintf("simnet.loss/n%d", int(id)))
	ep.jit = n.sched.RNG(fmt.Sprintf("simnet.jitter/n%d", int(id)))
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

// Restart boots a previously halted node with the same identity. The
// handler's persistent state survives; Start is called again.
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

// delivery is a pooled in-flight message event. Its run closure is bound
// once when the delivery is first allocated; afterwards sending a message
// reuses a free delivery and schedules the existing closure, so the steady
// state send path allocates nothing. Each delivery belongs to the pool of
// the queue it executes on.
type delivery struct {
	n   *Network
	qi  int32 // owning pool == executing queue
	run func()
	deliveryState
}

// deliveryState is what a send writes into a pooled delivery; dst and next
// point into the identity-preserved endpoint table and delivery registry.
type deliveryState struct {
	dst     *endpoint
	from    NodeID
	payload any
	inc     uint64
	control bool      // connection-layer traffic (bypasses the app handler)
	next    *delivery // pool free list
}

func (n *Network) newDelivery(qi int32) *delivery {
	p := &n.pools[qi]
	d := p.free
	if d == nil {
		d = &delivery{n: n, qi: qi}
		d.run = d.fire
		p.all = append(p.all, d)
	} else {
		p.free = d.next
		d.next = nil
	}
	return d
}

// fire executes the arrival. The delivery returns to the pool before the
// handler runs: all state is copied to locals first, so reentrant sends from
// inside Deliver can safely reuse it.
func (d *delivery) fire() {
	n, dst, from, payload, inc, control, qi := d.n, d.dst, d.from, d.payload, d.inc, d.control, d.qi
	d.dst = nil
	d.payload = nil
	p := &n.pools[qi]
	d.next = p.free
	p.free = d
	if !control {
		n.arrive(dst, from, payload, inc, qi)
		return
	}
	if !dst.up || dst.incarnation != inc {
		return
	}
	// Control traffic always executes on the root queue (see sendControl),
	// so the root clock is the execution clock.
	n.conns.observeTraffic(from, dst.id, n.sched.Now())
	n.conns.handleControl(from, dst.id, payload)
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

// flight is a pooled in-flight broadcast: every destination that survived
// the send-time checks, sorted by its sender-assigned event key, behind one
// queued event. A delivery's key is (at, sender lane, seq) and a flight's
// destinations share the lane, so (at, seq) order is key order. The flight
// is queued under its first destination's key; firing re-arms it under the
// next destination's key before delivering, so every delivery executes at
// exactly the position its own queued event would have had while the queue
// holds one entry per broadcast instead of one per destination.
type flight struct {
	n   *Network
	qi  int32 // owning pool == executing queue
	run func()
	flightState
}

// flightState is what a broadcast writes into a pooled flight; next points
// into the identity-preserved flight registry.
type flightState struct {
	from    NodeID
	payload any
	base    uint64       // lane sequence number of seqOff 0
	dests   []flightDest // sorted by (at, seqOff); pointer-free
	cur     int          // next destination to deliver
	next    *flight      // pool free list
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

func (n *Network) newFlight(qi int32) *flight {
	p := &n.flights[qi]
	f := p.free
	if f == nil {
		f = &flight{n: n, qi: qi}
		f.run = f.fire
		p.all = append(p.all, f)
	} else {
		p.free = f.next
		f.next = nil
	}
	return f
}

func (n *Network) freeFlight(f *flight) {
	f.payload = nil
	f.dests = f.dests[:0]
	f.cur = 0
	p := &n.flights[f.qi]
	f.next = p.free
	p.free = f
}

// arm queues the flight under the key of its next destination.
func (f *flight) arm() {
	d := &f.dests[f.cur]
	f.n.sched.ScheduleKeyed(d.dst, int32(f.from), f.base+uint64(d.seqOff), d.at, f.run)
}

// fire delivers to the next destination. The flight re-arms (or returns to
// the pool) before the handler runs: the re-arm takes the event slot this
// firing just released, and reentrant broadcasts from inside Deliver may
// reuse a finished flight.
func (f *flight) fire() {
	n, from, payload, qi := f.n, f.from, f.payload, f.qi
	d := f.dests[f.cur]
	f.cur++
	if f.cur < len(f.dests) {
		f.arm()
	} else {
		n.freeFlight(f)
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
		lat:  n.sched.RNG(fmt.Sprintf("simnet.latency/n%d", int(id))),
		loss: n.sched.RNG(fmt.Sprintf("simnet.loss/n%d", int(id))),
		jit:  n.sched.RNG(fmt.Sprintf("simnet.jitter/n%d", int(id))),
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

// send is the unicast path: one pooled delivery event per message. The
// streams are the sender's own or, for SendAs, the virtual sender's.
// Cross-partition sends inside a window go to the outbox.
func (n *Network) send(src *endpoint, to NodeID, payload any, lat, loss, jit *rand.Rand) {
	dst, at, seq, ok := n.route(src, to, lat, loss, jit)
	if !ok {
		return
	}
	if dst.qi != src.qi && n.sched.InWindow() {
		box := &n.outbox[src.qi]
		box.msgs = append(box.msgs, outMsg{
			at: at, seq: seq, from: src.id, dst: dst, payload: payload, inc: dst.incarnation,
		})
		return
	}
	n.deliverAt(dst, src.id, payload, dst.incarnation, seq, at)
}

// deliverAt queues one unicast delivery under its sender-assigned key.
func (n *Network) deliverAt(dst *endpoint, from NodeID, payload any, inc, seq uint64, at time.Duration) {
	d := n.newDelivery(dst.qi)
	d.dst = dst
	d.from = from
	d.payload = payload
	d.inc = inc
	d.control = false
	n.sched.ScheduleKeyed(int32(dst.id), int32(from), seq, at, d.run)
}

// broadcast is the multicast path: the same per-destination checks and
// draws as a loop of sends, in peer order, but the survivors are collected
// into one flight per destination queue (exactly one in sequential mode)
// instead of one queued event each. A sub-flight bound for another
// partition inside a window is built in the sender's own pool and parked in
// the outbox; the barrier re-homes it.
func (n *Network) broadcast(src *endpoint, peers []NodeID, payload any) {
	stage := n.flights[src.qi].stage
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
			f = n.newFlight(home)
			f.from, f.payload, f.base = src.id, payload, seq
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
		slices.SortFunc(f.dests, flightDest.compare)
		if f.qi != int32(qi) {
			box := &n.outbox[src.qi]
			box.flights = append(box.flights, f)
			continue
		}
		f.arm()
	}
}

// flushOutboxes injects every buffered cross-partition send into its
// receiver's queue. Runs as a barrier hook with all partitions quiesced;
// because keys were assigned at send time, the per-queue append order the
// boxes happen to hold carries no meaning. A buffered sub-flight hands its
// destination array to a flight of the receiving queue's pool and returns
// to its sender's.
func (n *Network) flushOutboxes() {
	for qi := range n.outbox {
		box := &n.outbox[qi]
		for i := range box.msgs {
			m := &box.msgs[i]
			n.deliverAt(m.dst, m.from, m.payload, m.inc, m.seq, m.at)
			m.dst = nil
			m.payload = nil
		}
		box.msgs = box.msgs[:0]
		for i, f := range box.flights {
			g := n.newFlight(n.nodes[f.dests[0].dst].qi)
			g.from, g.payload, g.base = f.from, f.payload, f.base
			g.dests, f.dests = f.dests, g.dests
			g.arm()
			n.freeFlight(f)
			box.flights[i] = nil
		}
		box.flights = box.flights[:0]
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
	// rngSeeds memoizes the derived seed per stream name so repeated
	// derivations (every restart) skip the name formatting and hashing.
	rngSeeds map[string]int64
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

// RNG derives a deterministic random stream namespaced to this node. Like
// sim.Scheduler.RNG, every call returns a fresh stream positioned at its
// start; the derivation is memoized per name.
func (c *Context) RNG(name string) *rand.Rand {
	d, ok := c.rngSeeds[name]
	if !ok {
		d = c.net.sched.RNGSeed(fmt.Sprintf("node/%d/%s", int(c.ep.id), name))
		if c.rngSeeds == nil {
			c.rngSeeds = make(map[string]int64)
		}
		c.rngSeeds[name] = d
	}
	// Issue through the scheduler so the stream registers for
	// Snapshot/Restore.
	return c.net.sched.RNGFromSeed(d)
}

// Connected reports whether the connection layer currently allows traffic
// from this node to peer (always true when connections are unmanaged).
func (c *Context) Connected(peer NodeID) bool {
	if c.net.conns == nil {
		return true
	}
	return c.net.conns.allows(c.ep.id, peer)
}
