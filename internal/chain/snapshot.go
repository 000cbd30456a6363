package chain

import (
	"maps"
	"slices"

	"stabl/internal/overlay"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
)

// This file implements checkpointing for the shared validator core (see
// package snapshot for the restore-in-place rules). Blocks and transactions
// are immutable values, so checkpoints share Tx slices and copy only the
// containers that mutate. The chain models put BaseState in their own
// checkpoints via SnapshotBase/RestoreBase.

// copyInto makes dst an independent copy of s, reusing dst's own storage
// when large enough — the ledger tables are the bulk of a node's checkpoint,
// and the pool and execution pipeline keep their pointer to dst's table.
func (s *ledgerState) copyInto(dst *ledgerState) {
	blocks, txs, accounts := dst.blocks, dst.txs, dst.accounts
	*dst = *s
	dst.blocks = append(blocks[:0], s.blocks...)
	s.txs.copyInto(&txs)
	dst.txs = txs
	dst.accounts = append(accounts[:0], s.accounts...)
}

// copyInto is a table checkpoint: two slice copies into dst's own storage.
func (t *txTable) copyInto(dst *txTable) {
	dst.cells = append(dst.cells[:0], t.cells...)
	dst.rows = append(dst.rows[:0], t.rows...)
}

func (s *poolState) copyInto(dst *poolState) {
	queue := dst.queue
	*dst = *s
	dst.queue = append(queue[:0], s.queue...)
}

// copyInto reuses dst's commit log: it is the monitor's bulk, one entry per
// transaction of the run.
func (s *monitorState) copyInto(dst *monitorState) {
	seen, commits, heights, forks, integrity := dst.seen, dst.commits, dst.heights, dst.forks, dst.integrity
	*dst = *s
	s.seen.copyInto(&seen)
	dst.seen = seen
	dst.commits = append(commits[:0], s.commits...)
	dst.heights = append(heights[:0], s.heights...)
	dst.forks = append(forks[:0], s.forks...)
	dst.integrity = append(integrity[:0], s.integrity...)
}

// Snapshot captures the monitor's dedup set, commit log and chain-integrity
// trail. The monitor is shared by every validator, so it is snapshotted once
// per experiment; the attached metrics recorder snapshots separately.
func (m *Monitor) Snapshot() snapshot.State {
	if m.par != nil {
		panic("chain: Monitor.Snapshot requires sequential mode (see DisableParallel)")
	}
	st := new(monitorState)
	m.monitorState.copyInto(st)
	return st
}

// Restore rewinds the monitor to a state captured by Snapshot.
func (m *Monitor) Restore(state snapshot.State) {
	st, ok := state.(*monitorState)
	if !ok {
		panic("chain: Monitor.Restore on foreign state")
	}
	if m.par != nil {
		panic("chain: Monitor.Restore requires sequential mode")
	}
	st.copyInto(&m.monitorState)
}

// BaseState is a BaseNode checkpoint; chain models put it in their own.
type BaseState struct {
	nodeState
	ledger ledgerState
	pool   poolState
	exec   simnet.TokenBucket // *nodeState.exec, when set
	relay  overlay.State      // when a relay is attached
}

func (s *nodeState) clone() nodeState {
	c := *s
	c.subscribers = make(map[TxID][]simnet.NodeID, len(s.subscribers))
	for id, subs := range s.subscribers {
		c.subscribers[id] = slices.Clone(subs)
	}
	c.pending = maps.Clone(s.pending)
	return c
}

// SnapshotBase captures the shared validator core: ledger, mempool,
// execution pipeline, catch-up machinery and client subscriptions.
func (n *BaseNode) SnapshotBase() BaseState {
	st := BaseState{nodeState: n.nodeState.clone()}
	n.Ledger.ledgerState.copyInto(&st.ledger)
	n.Pool.poolState.copyInto(&st.pool)
	if n.exec != nil {
		st.exec = *n.exec
	}
	if n.relay != nil {
		st.relay = n.relay.Snapshot()
	}
	return st
}

// RestoreBase rewinds the shared validator core to a captured state.
func (n *BaseNode) RestoreBase(st BaseState) {
	n.nodeState = st.nodeState.clone()
	st.ledger.copyInto(&n.Ledger.ledgerState)
	st.pool.copyInto(&n.Pool.poolState)
	if n.exec != nil {
		*n.exec = st.exec
	}
	if n.relay != nil {
		n.relay.Restore(st.relay)
	}
}
