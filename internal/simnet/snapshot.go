package simnet

import (
	"sort"
	"time"

	"stabl/internal/sim"
	"stabl/internal/snapshot"
)

// epState is one endpoint's mutable state. The endpoint object (and its
// Context) is identity-preserved: queued delivery and timer closures hold
// the pointer, so Restore writes through it.
type epState struct {
	up          bool
	connPeer    bool
	incarnation uint64
}

// deliveryState rewinds one pooled delivery. dst and next are pointers into
// the identity-preserved endpoint table and delivery registry.
type deliveryState struct {
	dst     *endpoint
	from    NodeID
	payload any
	inc     uint64
	control bool
	next    *delivery
}

// flightState rewinds one pooled flight. Only the destinations still to be
// delivered are kept (a free flight has none); next points into the
// identity-preserved flight registry.
type flightState struct {
	from    NodeID
	payload any
	base    uint64
	rest    []flightDest
	next    *flight
}

// pairConnState is one managed connection pair's state; the pairState object
// is identity-preserved (retry/ack closures capture it).
type pairConnState struct {
	established bool
	lastRecvA   time.Duration
	lastRecvB   time.Duration
	attempt     int
	epoch       uint64
	retryTimer  sim.Timer
	ackTimer    sim.Timer
}

type netState struct {
	stats        Stats
	rules        map[int]partitionRule
	ruleSeq      int
	blockedPairs map[pairKey]int
	eps          []epState
	extraDelay   []time.Duration
	extraDelayed int
	lossRate     []float64
	lossyIfaces  int
	jitterBound  []time.Duration
	jitterIfaces int
	deliveries   []deliveryState
	freeHead     *delivery
	flights      []flightState
	freeFlight   *flight
	// virtIDs records which virtual sender streams existed at the
	// checkpoint (sorted). Streams created after it are truncated out of
	// the scheduler's registry by its Restore, so the network must drop its
	// map entries for them too — re-execution re-derives them fresh.
	virtIDs []NodeID
	// Connection layer (nil when unmanaged).
	pairs   []pairConnState // in cm.order order
	downs   uint64
	reconns uint64
}

// Snapshot captures the network: endpoint liveness and incarnations,
// partition rules and blocked-pair counts, per-interface degradation tables,
// every pooled delivery and broadcast flight (in-flight or free) and the
// connection layer's pair states. The node table, contexts, handlers and
// registries are identity-preserved; the scheduler owns the RNG streams
// (simnet's per-node latency, loss and jitter streams register there).
// Checkpoints capture the sequential layout only; the forking API falls back
// before snapshotting.
func (n *Network) Snapshot() snapshot.State {
	if len(n.pools) > 1 {
		panic("simnet: Snapshot requires the sequential network (see DisableParallel)")
	}
	st := &netState{
		stats:        n.statsh[0],
		rules:        make(map[int]partitionRule, len(n.rules)),
		ruleSeq:      n.ruleSeq,
		blockedPairs: make(map[pairKey]int, len(n.blockedPairs)),
		eps:          make([]epState, len(n.nodes)),
		extraDelay:   append([]time.Duration(nil), n.extraDelay...),
		extraDelayed: n.extraDelayed,
		lossRate:     append([]float64(nil), n.lossRate...),
		lossyIfaces:  n.lossyIfaces,
		jitterBound:  append([]time.Duration(nil), n.jitterBound...),
		jitterIfaces: n.jitterIfaces,
		deliveries:   make([]deliveryState, len(n.pools[0].all)),
		freeHead:     n.pools[0].free,
		flights:      make([]flightState, len(n.flights[0].all)),
		freeFlight:   n.flights[0].free,
	}
	for id, r := range n.rules {
		st.rules[id] = r // rule pair lists are immutable after Partition
	}
	for k, c := range n.blockedPairs {
		st.blockedPairs[k] = c
	}
	for i, ep := range n.nodes {
		if ep != nil {
			st.eps[i] = epState{up: ep.up, connPeer: ep.connPeer, incarnation: ep.incarnation}
		}
	}
	for i, d := range n.pools[0].all {
		st.deliveries[i] = deliveryState{
			dst: d.dst, from: d.from, payload: d.payload,
			inc: d.inc, control: d.control, next: d.next,
		}
	}
	for i, f := range n.flights[0].all {
		st.flights[i] = flightState{
			from: f.from, payload: f.payload, base: f.base,
			rest: append([]flightDest(nil), f.dests[f.cur:]...), next: f.next,
		}
	}
	for id := range n.virt {
		st.virtIDs = append(st.virtIDs, id)
	}
	sort.Slice(st.virtIDs, func(i, j int) bool { return st.virtIDs[i] < st.virtIDs[j] })
	if cm := n.conns; cm != nil {
		st.downs = cm.downs
		st.reconns = cm.reconns
		st.pairs = make([]pairConnState, len(cm.order))
		for i, k := range cm.order {
			p := cm.pairs[k]
			st.pairs[i] = pairConnState{
				established: p.established,
				lastRecvA:   p.lastRecvA, lastRecvB: p.lastRecvB,
				attempt: p.attempt, epoch: p.epoch,
				retryTimer: p.retryTimer, ackTimer: p.ackTimer,
			}
		}
	}
	return st
}

// Restore rewinds the network to a state captured by Snapshot. Deliveries
// and flights allocated since the checkpoint drop out of their registries:
// only closures restored with the scheduler heap can reference them, and
// those predate the checkpoint too.
func (n *Network) Restore(state snapshot.State) {
	st, ok := state.(*netState)
	if !ok {
		panic("simnet: Network.Restore on foreign state")
	}
	if len(n.pools) > 1 {
		panic("simnet: Restore requires the sequential network")
	}
	n.statsh[0] = st.stats
	n.ruleSeq = st.ruleSeq
	clear(n.rules)
	for id, r := range st.rules {
		n.rules[id] = r
	}
	clear(n.blockedPairs)
	for k, c := range st.blockedPairs {
		n.blockedPairs[k] = c
	}
	if len(st.eps) != len(n.nodes) {
		panic("simnet: Network.Restore state from a different deployment")
	}
	for i, ep := range n.nodes {
		if ep != nil {
			ep.up = st.eps[i].up
			ep.connPeer = st.eps[i].connPeer
			ep.incarnation = st.eps[i].incarnation
		}
	}
	n.extraDelay = append(n.extraDelay[:0], st.extraDelay...)
	n.extraDelayed = st.extraDelayed
	n.lossRate = append(n.lossRate[:0], st.lossRate...)
	n.lossyIfaces = st.lossyIfaces
	n.jitterBound = append(n.jitterBound[:0], st.jitterBound...)
	n.jitterIfaces = st.jitterIfaces
	p := &n.pools[0]
	if len(st.deliveries) > len(p.all) {
		panic("simnet: Network.Restore state from a different network history")
	}
	p.all = p.all[:len(st.deliveries)]
	for i, d := range p.all {
		ds := st.deliveries[i]
		d.dst = ds.dst
		d.from = ds.from
		d.payload = ds.payload
		d.inc = ds.inc
		d.control = ds.control
		d.next = ds.next
	}
	p.free = st.freeHead
	fp := &n.flights[0]
	if len(st.flights) > len(fp.all) {
		panic("simnet: Network.Restore state from a different network history")
	}
	fp.all = fp.all[:len(st.flights)]
	for i, f := range fp.all {
		fs := st.flights[i]
		f.from = fs.from
		f.payload = fs.payload
		f.base = fs.base
		f.dests = append(f.dests[:0], fs.rest...)
		f.cur = 0
		f.next = fs.next
	}
	fp.free = st.freeFlight
	if len(n.virt) > len(st.virtIDs) {
		// Virtual streams created since the checkpoint: the scheduler's
		// Restore already truncated their sources out of its registry, so
		// the cached rand.Rand objects are orphaned. Drop them; replayed
		// sends re-derive identical fresh streams on first use.
		keep := make(map[NodeID]bool, len(st.virtIDs))
		for _, id := range st.virtIDs {
			keep[id] = true
		}
		for id := range n.virt {
			if !keep[id] {
				delete(n.virt, id)
			}
		}
	}
	if cm := n.conns; cm != nil {
		cm.downs = st.downs
		cm.reconns = st.reconns
		for i, k := range cm.order {
			p := cm.pairs[k]
			p.established = st.pairs[i].established
			p.lastRecvA = st.pairs[i].lastRecvA
			p.lastRecvB = st.pairs[i].lastRecvB
			p.attempt = st.pairs[i].attempt
			p.epoch = st.pairs[i].epoch
			p.retryTimer = st.pairs[i].retryTimer
			p.ackTimer = st.pairs[i].ackTimer
		}
	}
}
