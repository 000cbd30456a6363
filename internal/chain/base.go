package chain

import (
	"math/rand"
	"slices"
	"time"

	"stabl/internal/metrics"
	"stabl/internal/overlay"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// BaseConfig parameterizes the chain-agnostic part of a validator.
type BaseConfig struct {
	// ExecRate is the node's transaction execution budget in tx/s; zero
	// means execution is instantaneous. A finite budget is what makes a
	// chain slow to drain the backlog accumulated during downtime
	// (Aptos, STABL §5).
	ExecRate float64
	// ExecBurst is the bucket burst in tx; defaults to one second of
	// ExecRate.
	ExecBurst float64
	// SyncBatch is the number of blocks fetched per catch-up round trip.
	SyncBatch int
	// SyncRetry is how long to wait for a catch-up response before
	// asking another peer.
	SyncRetry time.Duration
	// DuplicateExecCost is the execution-budget cost charged when a
	// client submits a transaction that is already committed. This
	// models Aptos' Block-STM speculative re-execution of redundant
	// transactions (SEQUENCE_NUMBER_TOO_OLD, STABL §7).
	DuplicateExecCost float64
}

func (c BaseConfig) withDefaults() BaseConfig {
	if c.SyncBatch <= 0 {
		c.SyncBatch = 200
	}
	if c.SyncRetry <= 0 {
		c.SyncRetry = 2 * time.Second
	}
	if c.ExecRate > 0 && c.ExecBurst <= 0 {
		c.ExecBurst = c.ExecRate
	}
	return c
}

// BaseNode implements the behaviour every validator model shares: accepting
// client submissions, maintaining a mempool, executing decided blocks in
// order under an execution budget, answering and issuing catch-up requests,
// and notifying subscribed clients when their transactions commit.
//
// Protocol models embed a *BaseNode by composition and drive it through
// SubmitBlock when their consensus decides.
type BaseNode struct {
	ID      simnet.NodeID
	Peers   []simnet.NodeID
	Ledger  *Ledger
	Pool    *Mempool
	Monitor *Monitor

	// OnCommit, if set, runs after a block is executed; chains use it to
	// prune their volatile structures.
	OnCommit func(b Block, executed []Tx)
	// OnCaughtUp, if set, runs when a catch-up round finds no more
	// blocks to fetch.
	OnCaughtUp func()
	// OnLocalSubmit, if set, runs when a client submission is accepted
	// into the pool; chains use it to trigger gossip or forwarding.
	OnLocalSubmit func(tx Tx)

	cfg BaseConfig
	// relay, when set, routes every validator broadcast over a structured
	// gossip overlay instead of the full mesh; nil preserves the legacy
	// byte-identical behaviour. Set once at deployment time (SetRelay),
	// it survives restarts — only its volatile caches clear in Reset.
	relay *overlay.Router
	nodeState
}

// nodeState is what a BaseNode itself mutates after construction (the ledger
// and pool carry their own states), and its checkpoint. Reset replaces the
// exec bucket and sync RNG on every restart, so the state records which
// objects were current; no queued closure captures either directly
// (everything reaches them through the stable *BaseNode). The RNG stream
// position lives in the scheduler's registry.
type nodeState struct {
	ctx       *simnet.Context
	exec      *simnet.TokenBucket
	rng       *rand.Rand
	extraExec float64

	// Volatile state, reset on every (re)start. So are the in-pipeline
	// marks of decided-but-unexecuted transactions and the subscribed
	// marks, which live in the ledger's table: subscribers has an entry
	// exactly for the transactions whose txSubscribed bit is set, so apply
	// reads the map only for those.
	subscribers   map[TxID][]simnet.NodeID
	pending       map[int]Block
	applying      bool
	applyingAt    int // height of the block being executed (-1 when idle)
	applyingBlock Block
	applyErrors   uint64
	syncTimer     sim.Timer
	syncActive    bool
}

// NewBaseNode constructs the shared validator core. The ledger persists
// across restarts; everything else is rebuilt in Reset.
func NewBaseNode(id simnet.NodeID, peers []simnet.NodeID, monitor *Monitor, cfg BaseConfig) *BaseNode {
	// Peers is shared, not copied: every validator reads the same
	// deployment-owned roster (nobody mutates it), and a per-node copy is
	// O(n^2) memory at 10k nodes.
	n := &BaseNode{
		ID:      id,
		Peers:   peers,
		Ledger:  NewLedger(),
		Monitor: monitor,
		cfg:     cfg.withDefaults(),
	}
	n.Ledger.VerifyParents = true
	// The pool marks the ledger's own table, so its one probe per Add
	// rejects pending and committed transactions alike.
	n.Pool = &Mempool{txs: &n.Ledger.txs}
	return n
}

// Ctx returns the node's current simnet context (valid while running).
func (n *BaseNode) Ctx() *simnet.Context { return n.ctx }

// Consensus reports a protocol-level event (round start, commit, timeout,
// leader change) to the experiment's metrics recorder, stamped with the
// node's identity and the current virtual time. It is a no-op without an
// attached recorder, so instrumentation costs the chain models one call.
func (n *BaseNode) Consensus(kind metrics.EventKind, round int, leader simnet.NodeID, detail string) {
	if n.Monitor == nil || n.Monitor.Metrics() == nil || n.ctx == nil {
		return
	}
	n.Monitor.ConsensusEvent(metrics.Event{
		At:     n.ctx.Now(),
		Kind:   kind,
		Node:   n.ID,
		Round:  round,
		Leader: leader,
		Detail: detail,
	})
}

// Config returns the node's base configuration.
func (n *BaseNode) Config() BaseConfig { return n.cfg }

// SetRelay attaches a structured-gossip router (see internal/overlay). Must
// be called at deployment time, before the node first starts. With a relay
// attached, Broadcast travels the overlay, Unwrap filters relayed envelopes
// and Neighbors/randomPeer restrict to overlay neighbors, so every
// validator-to-validator message stays on overlay edges.
func (n *BaseNode) SetRelay(r *overlay.Router) { n.relay = r }

// Relay returns the attached overlay router (nil on the legacy full mesh).
func (n *BaseNode) Relay() *overlay.Router { return n.relay }

// Gossips reports whether this node disseminates over a structured overlay.
// Chain models branch on it where overlay routing needs different semantics
// (e.g. point-to-point vote sends that become broadcasts).
func (n *BaseNode) Gossips() bool { return n.relay != nil }

// Broadcast disseminates payload to every peer: over the overlay when a
// relay is attached, otherwise to the full sorted roster. This is the single
// seam all five chain models broadcast through.
func (n *BaseNode) Broadcast(payload any) {
	if n.relay != nil {
		n.relay.Broadcast(n.ctx, payload)
		return
	}
	n.ctx.Broadcast(n.Peers, payload)
}

// Unwrap filters one delivered payload through the overlay router: relayed
// envelopes are deduplicated and forwarded, direct traffic passes through.
// Chains call it first in Deliver and drop the payload when ok is false.
func (n *BaseNode) Unwrap(from simnet.NodeID, payload any) (inner any, ok bool) {
	if n.relay == nil {
		return payload, true
	}
	return n.relay.Unwrap(n.ctx, from, payload)
}

// Neighbors returns the peers this node may address directly: the overlay
// neighborhood when a relay is attached, else the full roster (self
// included — callers that need "others" must still filter, as with Peers).
func (n *BaseNode) Neighbors() []simnet.NodeID {
	if n.relay != nil {
		return n.relay.Neighbors()
	}
	return n.Peers
}

// Reset rebinds the node to a (re)started incarnation, dropping all volatile
// state. The mempool empties — in-flight transactions die with the process —
// while the ledger survives.
func (n *BaseNode) Reset(ctx *simnet.Context) {
	n.ctx = ctx
	n.rng = ctx.RNG("base.sync")
	n.Pool.Clear()
	n.subscribers = make(map[TxID][]simnet.NodeID)
	n.pending = make(map[int]Block)
	n.Ledger.txs.sweep(txPipeline | txSubscribed)
	n.applying = false
	n.applyingAt = -1
	n.syncActive = false
	n.extraExec = 0
	if n.relay != nil {
		n.relay.Reset()
	}
	if n.cfg.ExecRate > 0 {
		n.exec = simnet.NewTokenBucket(n.cfg.ExecRate, n.cfg.ExecBurst)
	} else {
		n.exec = nil
	}
}

// HandleClient processes a client-facing message, returning true when the
// payload was consumed. Duplicate submissions of already-committed
// transactions are acknowledged immediately and, when configured, charged
// against the execution budget (speculative re-execution). Read requests
// answer from the local ledger — which is exactly why a client that trusts
// one validator trusts whatever that validator says.
func (n *BaseNode) HandleClient(from simnet.NodeID, payload any) bool {
	if req, ok := payload.(ReadReq); ok {
		n.ctx.Send(from, ReadResp{
			Seq:     req.Seq,
			Addr:    req.Addr,
			Balance: n.Ledger.Balance(req.Addr),
			Nonce:   n.Ledger.NextNonce(req.Addr),
			Height:  n.Ledger.Height(),
		})
		return true
	}
	sub, ok := payload.(SubmitTx)
	if !ok {
		return false
	}
	tx := sub.Tx
	if h, committed := n.Ledger.Committed(tx.ID); committed {
		if n.exec != nil && n.cfg.DuplicateExecCost > 0 {
			n.exec.Reserve(n.ctx.Now(), n.cfg.DuplicateExecCost)
		}
		n.ctx.Send(from, TxCommitted{ID: tx.ID, Height: h})
		return true
	}
	n.Subscribe(tx.ID, from)
	if n.Pool.Add(tx) && n.OnLocalSubmit != nil {
		n.OnLocalSubmit(tx)
	}
	return true
}

// Subscribe registers an additional client to notify when tx commits; used
// by chains that forward transactions on behalf of clients.
func (n *BaseNode) Subscribe(id TxID, client simnet.NodeID) {
	*n.Ledger.txs.slot(id) |= txSubscribed
	n.subscribers[id] = append(n.subscribers[id], client)
}

// SubmitBlock hands a decided block to the execution pipeline. Blocks apply
// strictly in height order; duplicates and already-applied heights are
// ignored. Out-of-order blocks wait for their predecessors (which catch-up
// will fetch). This is where a validator hashes a block, once: the sealed
// copy serves TipHash, Ledger.Append, the monitor report and catch-up.
func (n *BaseNode) SubmitBlock(b Block) {
	if b.Height < n.Ledger.Height() {
		return
	}
	if _, dup := n.pending[b.Height]; dup {
		return
	}
	b.seal()
	n.pending[b.Height] = b
	for _, tx := range b.Txs {
		*n.Ledger.txs.slot(tx.ID) |= txPipeline
	}
	n.pump()
}

// InPipeline reports whether tx sits in a decided-but-unexecuted block.
// Proposers consult it to avoid re-proposing transactions that are already
// on their way to the ledger.
func (n *BaseNode) InPipeline(id TxID) bool {
	return n.Ledger.txs.state(id)&txPipeline != 0
}

// Union appends to dst the transactions of src that no earlier Union of the
// same merge has appended, in src order, and returns the extended slice: a
// proposer merging overlapping proposal lists calls it once per list and then
// EndUnion on the result. First sight is a mark in the node's own transaction
// table (the cells SubmitBlock touches next), so the merge builds no set of
// its own; pooled, in-pipeline and committed transactions merge like any
// other. The marks must not outlive the event: always pair with EndUnion.
func (n *BaseNode) Union(dst, src []Tx) []Tx {
	for _, tx := range src {
		if s := n.Ledger.txs.slot(tx.ID); *s&txMark == 0 {
			*s |= txMark
			dst = append(dst, tx)
		}
	}
	return dst
}

// EndUnion clears the first-sight marks of a finished merge; txs is what the
// Union calls returned.
func (n *BaseNode) EndUnion(txs []Tx) {
	for _, tx := range txs {
		n.Ledger.txs.clear(tx.ID, txMark)
	}
}

// TipHash returns the content address of the highest decided block —
// executed, executing, or queued — i.e. the parent the next proposal must
// link to.
func (n *BaseNode) TipHash() Hash {
	tip := n.Ledger.Height() - 1
	best := n.Ledger.TipHash()
	if n.applying && n.applyingAt > tip {
		tip = n.applyingAt
		best = n.applyingBlock.hash
	}
	for h, b := range n.pending {
		if h > tip {
			tip = h
			best = b.hash
		}
	}
	return best
}

// ChainTip returns the height the next proposal should use: one past the
// highest decided block, whether executed, executing, or still queued.
func (n *BaseNode) ChainTip() int {
	tip := n.Ledger.Height()
	if n.applying && n.applyingAt+1 > tip {
		tip = n.applyingAt + 1
	}
	for h := range n.pending {
		if h+1 > tip {
			tip = h + 1
		}
	}
	return tip
}

// ChargeExec consumes execution budget without scheduling work; it models
// speculative execution waste such as Block-STM re-executing an
// already-committed transaction.
func (n *BaseNode) ChargeExec(cost float64) {
	if n.exec != nil && cost > 0 {
		n.exec.Reserve(n.ctx.Now(), cost)
	}
}

// AddExecCost accumulates execution work that will be charged together with
// the next block application. Speculative re-execution of redundant
// transactions contends with block execution for the same CPU, so its cost
// lands on the critical path of commits.
func (n *BaseNode) AddExecCost(cost float64) {
	if cost > 0 {
		n.extraExec += cost
	}
}

// ProposalTxs returns up to max pool transactions that are neither executed
// nor already in the decided pipeline, in FIFO order.
func (n *BaseNode) ProposalTxs(max int) []Tx {
	out := make([]Tx, 0, max)
	for _, tx := range n.Pool.Pending() {
		if n.InPipeline(tx.ID) {
			continue
		}
		out = append(out, tx)
		if len(out) >= max {
			break
		}
	}
	return out
}

// ApplyErrors counts blocks rejected at apply time (duplicates or
// hash-chain violations).
func (n *BaseNode) ApplyErrors() uint64 { return n.applyErrors }

// HeadPending returns the lowest pending (decided but unexecuted) height, or
// -1 when the pipeline is empty.
func (n *BaseNode) HeadPending() int {
	if len(n.pending) == 0 {
		return -1
	}
	low := -1
	for h := range n.pending {
		if low == -1 || h < low {
			low = h
		}
	}
	return low
}

func (n *BaseNode) pump() {
	if n.applying {
		return
	}
	next := n.Ledger.Height()
	b, ok := n.pending[next]
	if !ok {
		return
	}
	delete(n.pending, next)
	n.applying = true
	n.applyingAt = next
	n.applyingBlock = b
	now := n.ctx.Now()
	readyAt := now
	if n.exec != nil {
		readyAt = n.exec.Reserve(now, float64(len(b.Txs))+n.extraExec)
		n.extraExec = 0
	}
	n.ctx.After(readyAt-now, func() {
		n.apply(b)
		n.applying = false
		n.pump()
	})
}

func (n *BaseNode) apply(b Block) {
	executed, err := n.Ledger.Append(b)
	if err != nil {
		// A duplicate height or a block that fails hash-chain
		// verification: drop it. Catch-up refetches the canonical
		// block from peers. (The block's in-pipeline marks stay set —
		// see ROADMAP item 4 and TestBaseNodeRejectedBlockKeepsPipelineMarks.)
		n.applyErrors++
		return
	}
	now := n.ctx.Now()
	if n.Monitor != nil {
		n.Monitor.RecordBlock(n.ID, b, now)
	}
	for _, tx := range b.Txs {
		if n.Ledger.txs.clear(tx.ID, txPipeline|txSubscribed)&txSubscribed == 0 {
			continue
		}
		for _, client := range n.subscribers[tx.ID] {
			n.ctx.Send(client, TxCommitted{ID: tx.ID, Height: b.Height})
		}
		delete(n.subscribers, tx.ID)
	}
	n.Pool.Drop(b.Txs)
	if n.OnCommit != nil {
		n.OnCommit(b, executed)
	}
}

// HandleSync processes catch-up traffic, returning true when the payload was
// consumed.
func (n *BaseNode) HandleSync(from simnet.NodeID, payload any) bool {
	switch msg := payload.(type) {
	case SyncReq:
		blocks := n.Ledger.BlocksFrom(msg.From, n.cfg.SyncBatch)
		n.ctx.Send(from, SyncResp{Blocks: blocks})
		return true
	case SyncResp:
		if !n.syncActive {
			return true
		}
		n.syncTimer.Stop()
		for _, b := range msg.Blocks {
			n.SubmitBlock(b)
		}
		if len(msg.Blocks) >= n.cfg.SyncBatch {
			n.requestSyncRound()
			return true
		}
		n.syncActive = false
		if n.OnCaughtUp != nil {
			n.OnCaughtUp()
		}
		return true
	default:
		return false
	}
}

// StartCatchUp begins fetching missed blocks from peers. It is idempotent
// while a catch-up is in progress.
func (n *BaseNode) StartCatchUp() {
	if n.syncActive {
		return
	}
	n.syncActive = true
	n.requestSyncRound()
}

// CatchingUp reports whether a catch-up round is in flight.
func (n *BaseNode) CatchingUp() bool { return n.syncActive }

func (n *BaseNode) requestSyncRound() {
	peer := n.randomPeer()
	if peer == n.ID {
		n.syncActive = false
		if n.OnCaughtUp != nil {
			n.OnCaughtUp()
		}
		return
	}
	from := n.nextNeededHeight()
	n.ctx.Send(peer, SyncReq{From: from})
	n.syncTimer.Stop()
	n.syncTimer = n.ctx.After(n.cfg.SyncRetry, func() {
		if n.syncActive {
			n.requestSyncRound()
		}
	})
}

func (n *BaseNode) nextNeededHeight() int {
	h := n.Ledger.Height()
	for {
		if _, ok := n.pending[h]; !ok {
			return h
		}
		h++
	}
}

func (n *BaseNode) randomPeer() simnet.NodeID {
	// Overlay mode pulls from direct neighbors only (the list excludes
	// self), so catch-up traffic stays on overlay edges. Either path costs
	// exactly one draw from the same stream.
	if n.relay != nil {
		ns := n.relay.Neighbors()
		if len(ns) == 0 {
			return n.ID
		}
		return ns[n.rng.Intn(len(ns))]
	}
	// Index into "Peers without self" without building it: draw among the
	// others, then step over self's position.
	self := slices.Index(n.Peers, n.ID)
	others := len(n.Peers)
	if self >= 0 {
		others--
	}
	if others == 0 {
		return n.ID
	}
	i := n.rng.Intn(others)
	if self >= 0 && i >= self {
		i++
	}
	return n.Peers[i]
}
