package simnet

import (
	"maps"
	"slices"

	"stabl/internal/snapshot"
)

func (s *netState) clone() netState {
	c := *s
	c.rules = maps.Clone(s.rules)
	c.blockedPairs = maps.Clone(s.blockedPairs)
	c.extraDelay = slices.Clone(s.extraDelay)
	c.lossRate = slices.Clone(s.lossRate)
	c.jitterBound = slices.Clone(s.jitterBound)
	c.virt = maps.Clone(s.virt)
	return c
}

// copyInto copies the destinations still to be delivered (a free flight has
// none) into dst, reusing dst's array.
func (s *flightState) copyInto(dst *flightState) {
	dests := dst.dests
	*dst = *s
	dst.dests = append(dests[:0], s.dests[s.cur:]...)
	dst.cur = 0
}

// netCheck is the Network's checkpoint: its own state plus the contents
// behind every identity-preserved object — endpoints (parallel to nodes),
// pooled deliveries and flights (parallel to the registries, whose lengths
// they record), and connection pairs (parallel to cm.pairs).
type netCheck struct {
	netState
	stats        Stats
	eps          []epState
	deliveries   []deliveryState
	freeDelivery *delivery
	flights      []flightState
	freeFlight   *flight
	pairs        []connState
	conns        connCounts
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
	dp, fp := &n.pools[0], &n.flights[0]
	st := &netCheck{
		netState:     n.netState.clone(),
		stats:        n.statsh[0],
		eps:          make([]epState, len(n.nodes)),
		deliveries:   make([]deliveryState, len(dp.all)),
		freeDelivery: dp.free,
		flights:      make([]flightState, len(fp.all)),
		freeFlight:   fp.free,
	}
	for i, ep := range n.nodes {
		if ep != nil {
			st.eps[i] = ep.epState
		}
	}
	for i, d := range dp.all {
		st.deliveries[i] = d.deliveryState
	}
	for i, f := range fp.all {
		f.flightState.copyInto(&st.flights[i])
	}
	if cm := n.conns; cm != nil {
		st.conns = cm.connCounts
		st.pairs = make([]connState, len(cm.pairs))
		for i := range cm.pairs {
			st.pairs[i] = cm.pairs[i].connState
		}
	}
	return st
}

// Restore rewinds the network to a state captured by Snapshot. Deliveries
// and flights allocated since the checkpoint drop out of their registries:
// only closures restored with the scheduler heap can reference them, and
// those predate the checkpoint too.
func (n *Network) Restore(state snapshot.State) {
	st, ok := state.(*netCheck)
	if !ok {
		panic("simnet: Network.Restore on foreign state")
	}
	if len(n.pools) > 1 {
		panic("simnet: Restore requires the sequential network")
	}
	dp, fp := &n.pools[0], &n.flights[0]
	if len(st.eps) != len(n.nodes) || len(st.deliveries) > len(dp.all) || len(st.flights) > len(fp.all) {
		panic("simnet: Network.Restore state from a different deployment or network history")
	}
	n.netState = st.netState.clone()
	n.statsh[0] = st.stats
	for i, ep := range n.nodes {
		if ep != nil {
			ep.epState = st.eps[i]
		}
	}
	dp.all, dp.free = dp.all[:len(st.deliveries)], st.freeDelivery
	for i, d := range dp.all {
		d.deliveryState = st.deliveries[i]
	}
	fp.all, fp.free = fp.all[:len(st.flights)], st.freeFlight
	for i, f := range fp.all {
		st.flights[i].copyInto(&f.flightState)
	}
	if cm := n.conns; cm != nil {
		cm.connCounts = st.conns
		for i := range cm.pairs {
			cm.pairs[i].connState = st.pairs[i]
		}
	}
}
