package chain

import (
	"math/rand"
	"time"

	"stabl/internal/overlay"
	"stabl/internal/sim"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
)

// This file implements checkpointing for the shared validator core (see
// package snapshot for the restore-in-place rules). Blocks and transactions
// are immutable values, so snapshot states share Tx slices and copy only the
// containers that mutate. The chain models embed BaseState in their own
// snapshot states via SnapshotBase/RestoreBase.

// ledgerState is a Ledger checkpoint.
//
// A node's whole per-transaction state — committed heights, in-pool and
// in-pipeline marks — is the ledger's table, so the ledger checkpoint carries
// all three and the pool's is just its queue.
type ledgerState struct {
	blocks   []Block
	hashes   []Hash
	txs      txTable
	accounts []account
	applied  uint64
	skipped  uint64
}

func (l *Ledger) snapshotState() ledgerState {
	return ledgerState{
		blocks:   append([]Block(nil), l.blocks...),
		hashes:   append([]Hash(nil), l.hashes...),
		txs:      l.txs.clone(),
		accounts: append([]account(nil), l.accounts...),
		applied:  l.applied,
		skipped:  l.skipped,
	}
}

func (l *Ledger) restoreState(st ledgerState) {
	l.blocks = append(l.blocks[:0], st.blocks...)
	l.hashes = append(l.hashes[:0], st.hashes...)
	l.txs.restore(st.txs)
	l.accounts = append(l.accounts[:0], st.accounts...)
	l.applied = st.applied
	l.skipped = st.skipped
}

// poolState is the checkpoint of a node's Mempool: the queue and counters.
// The in-pool marks travel with the shared table in ledgerState.
type poolState struct {
	queue    []Tx
	added    uint64
	rejected uint64
}

func (m *Mempool) snapshotState() poolState {
	return poolState{
		queue:    append([]Tx(nil), m.queue...),
		added:    m.added,
		rejected: m.rejected,
	}
}

func (m *Mempool) restoreState(st poolState) {
	m.queue = append(m.queue[:0], st.queue...)
	m.added = st.added
	m.rejected = st.rejected
}

// monitorState is the experiment-wide Monitor's checkpoint. The monitor is
// shared by every validator, so it is snapshotted once per experiment, not
// per node.
type monitorState struct {
	seen       map[TxID]bool
	commits    []CommitEvent
	maxHeight  int
	lastCommit time.Duration
	haveBlock  bool
	lastHash   Hash
	integrity  []string
}

// Snapshot captures the monitor's dedup set, commit log and chain-integrity
// trail. The attached metrics recorder snapshots separately.
func (m *Monitor) Snapshot() snapshot.State {
	st := &monitorState{
		seen:       make(map[TxID]bool, len(m.seen)),
		commits:    append([]CommitEvent(nil), m.commits...),
		maxHeight:  m.maxHeight,
		lastCommit: m.lastCommit,
		haveBlock:  m.haveBlock,
		lastHash:   m.lastHash,
		integrity:  append([]string(nil), m.integrity...),
	}
	for k := range m.seen {
		st.seen[k] = true
	}
	return st
}

// Restore rewinds the monitor to a state captured by Snapshot.
func (m *Monitor) Restore(state snapshot.State) {
	st, ok := state.(*monitorState)
	if !ok {
		panic("chain: Monitor.Restore on foreign state")
	}
	m.seen = make(map[TxID]bool, len(st.seen))
	for k := range st.seen {
		m.seen[k] = true
	}
	m.commits = append(m.commits[:0], st.commits...)
	m.maxHeight = st.maxHeight
	m.lastCommit = st.lastCommit
	m.haveBlock = st.haveBlock
	m.lastHash = st.lastHash
	m.integrity = append(m.integrity[:0], st.integrity...)
}

// BaseState is a BaseNode checkpoint; chain models embed it in their own
// snapshot states. Reset replaces the node's exec bucket and sync RNG on
// every restart, so the state records which objects were current at
// checkpoint time — no queued closure captures either directly (everything
// reaches them through the stable *BaseNode), so restoring the pointers is
// sufficient. The RNG stream position itself lives in the scheduler's
// registry.
type BaseState struct {
	ledger        ledgerState
	pool          poolState
	ctx           *simnet.Context
	exec          *simnet.TokenBucket
	execState     simnet.BucketState
	rng           *rand.Rand
	extraExec     float64
	subscribers   map[TxID][]simnet.NodeID
	pending       map[int]Block
	applying      bool
	applyingAt    int
	applyingBlock Block
	applyErrors   uint64
	syncTimer     sim.Timer
	syncActive    bool
	relay         overlay.State
	hasRelay      bool
}

// SnapshotBase captures the shared validator core: ledger, mempool,
// execution pipeline, catch-up machinery and client subscriptions.
func (n *BaseNode) SnapshotBase() BaseState {
	st := BaseState{
		ledger:        n.Ledger.snapshotState(),
		pool:          n.Pool.snapshotState(),
		ctx:           n.ctx,
		exec:          n.exec,
		rng:           n.rng,
		extraExec:     n.extraExec,
		subscribers:   make(map[TxID][]simnet.NodeID, len(n.subscribers)),
		pending:       make(map[int]Block, len(n.pending)),
		applying:      n.applying,
		applyingAt:    n.applyingAt,
		applyingBlock: n.applyingBlock,
		applyErrors:   n.applyErrors,
		syncTimer:     n.syncTimer,
		syncActive:    n.syncActive,
	}
	if n.exec != nil {
		st.execState = n.exec.SnapshotState()
	}
	if n.relay != nil {
		st.relay = n.relay.Snapshot()
		st.hasRelay = true
	}
	for k, v := range n.subscribers {
		st.subscribers[k] = append([]simnet.NodeID(nil), v...)
	}
	for k, v := range n.pending {
		st.pending[k] = v
	}
	return st
}

// RestoreBase rewinds the shared validator core to a captured state.
func (n *BaseNode) RestoreBase(st BaseState) {
	n.Ledger.restoreState(st.ledger)
	n.Pool.restoreState(st.pool)
	n.ctx = st.ctx
	n.exec = st.exec
	if n.exec != nil {
		n.exec.RestoreState(st.execState)
	}
	n.rng = st.rng
	n.extraExec = st.extraExec
	if st.hasRelay {
		n.relay.Restore(st.relay)
	}
	n.subscribers = make(map[TxID][]simnet.NodeID, len(st.subscribers))
	for k, v := range st.subscribers {
		n.subscribers[k] = append([]simnet.NodeID(nil), v...)
	}
	n.pending = make(map[int]Block, len(st.pending))
	for k, v := range st.pending {
		n.pending[k] = v
	}
	n.applying = st.applying
	n.applyingAt = st.applyingAt
	n.applyingBlock = st.applyingBlock
	n.applyErrors = st.applyErrors
	n.syncTimer = st.syncTimer
	n.syncActive = st.syncActive
}
