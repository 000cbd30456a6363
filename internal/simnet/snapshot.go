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

// netCheck is the Network's checkpoint: its own state plus the contents
// behind every identity-preserved object — endpoints (parallel to nodes),
// pooled flights (parallel to the registry, whose length they record), and
// connection pairs (parallel to cm.pairs).
type netCheck struct {
	netState
	stats   Stats
	eps     []epState
	flights []flightState
	free    [2]*flight
	pairs   []connState
	conns   connCounts
}

// Snapshot captures the network: endpoint liveness and incarnations,
// partition rules and blocked-pair counts, per-interface degradation tables,
// every pooled flight (in flight or free) and the connection layer's pair
// states. The node table, contexts, handlers and registry are
// identity-preserved; the scheduler owns the RNG streams (simnet's per-node
// latency, loss and jitter streams register there). Checkpoints capture the
// sequential layout only; the forking API falls back before snapshotting.
func (n *Network) Snapshot() snapshot.State {
	if len(n.flights) > 1 {
		panic("simnet: Snapshot requires the sequential network (see DisableParallel)")
	}
	fp := &n.flights[0]
	st := &netCheck{
		netState: n.netState.clone(),
		stats:    n.statsh[0],
		eps:      make([]epState, len(n.nodes)),
		flights:  make([]flightState, len(fp.all)),
		free:     fp.free,
	}
	for i, ep := range n.nodes {
		if ep != nil {
			st.eps[i] = ep.epState
		}
	}
	// The destinations still to be delivered (a free flight has none) share
	// one array, so a checkpoint costs the same few allocations however
	// many messages are in flight.
	rest := 0
	for _, f := range fp.all {
		rest += len(f.dests) - int(f.cur)
	}
	dests := make([]flightDest, 0, rest)
	for i, f := range fp.all {
		lo := len(dests)
		dests = append(dests, f.dests[f.cur:]...)
		s := &st.flights[i]
		*s = f.flightState
		s.dests, s.cur = dests[lo:len(dests):len(dests)], 0
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

// Restore rewinds the network to a state captured by Snapshot. Flights
// allocated since the checkpoint drop out of the registry: only closures
// restored with the scheduler heap can reference them, and those predate
// the checkpoint too. A restored flight copies its destinations into its
// own array; the checkpoint stays intact for the next Restore.
func (n *Network) Restore(state snapshot.State) {
	st, ok := state.(*netCheck)
	if !ok {
		panic("simnet: Network.Restore on foreign state")
	}
	if len(n.flights) > 1 {
		panic("simnet: Restore requires the sequential network")
	}
	fp := &n.flights[0]
	if len(st.eps) != len(n.nodes) || len(st.flights) > len(fp.all) {
		panic("simnet: Network.Restore state from a different deployment or network history")
	}
	n.netState = st.netState.clone()
	n.statsh[0] = st.stats
	for i, ep := range n.nodes {
		if ep != nil {
			ep.epState = st.eps[i]
		}
	}
	fp.all, fp.free = fp.all[:len(st.flights)], st.free
	for i, f := range fp.all {
		dests := f.dests
		f.flightState = st.flights[i]
		f.dests = append(dests[:0], st.flights[i].dests...)
	}
	if cm := n.conns; cm != nil {
		cm.connCounts = st.conns
		for i := range cm.pairs {
			cm.pairs[i].connState = st.pairs[i]
		}
	}
}
