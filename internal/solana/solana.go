// Package solana models the Solana blockchain (STABL §2): a pre-determined
// leader schedule assigns each validator specific slots inside epochs; there
// is no mempool — nodes forward transactions directly to the scheduled
// leaders; per-slot banks freeze into the chain once a supermajority votes;
// and an Epoch Accounts Hash (EAH) must be computed between ¼ and ¾ of every
// epoch.
//
// The model reproduces the behaviours STABL measures:
//
//   - Crashed leaders leave their slots empty while the workload keeps
//     arriving, so throughput oscillates between gaps and catch-up peaks,
//     and Solana's excellent baseline makes the sensitivity score large
//     (§4 "Solana leader impacts performance").
//   - Cluster genesis uses warm-up epochs (32 slots doubling towards 8192).
//     A disruption that halts rooting inside an epoch shorter than 360
//     slots leaves the EAH uncomputed when the bank reaches the ¾-epoch
//     integration point; the precondition check panics and every validator
//     crashes — Solana cannot recover from transient failures or partitions
//     (§5 "Solana generalized failure", §6).
//   - The secure client changes little: all routes forward to the same
//     deterministic leader schedule (§7).
package solana

import (
	"hash/fnv"
	"time"

	"stabl/internal/chain"
	"stabl/internal/committee"
	"stabl/internal/metrics"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// Config parameterizes the Solana model.
type Config struct {
	// SlotDuration is the PoH slot length (400 ms on mainnet).
	SlotDuration time.Duration
	// WarmupStartSlots is the length of epoch 0; warm-up epochs double
	// until EpochSlots.
	WarmupStartSlots int
	// EpochSlots is the steady-state epoch length (8192 in the dev
	// cluster the paper deploys).
	EpochSlots int
	// MinEpochSlotsForEAH is the minimum epoch length for which the EAH
	// start/stop schedule is feasible (~360 slots per the Solana devs).
	MinEpochSlotsForEAH int
	// MaxRootLagSlots is how far rooting may trail the slot clock at the
	// EAH integration point before the precondition fails.
	MaxRootLagSlots int
	// ConsecutiveSlots is how many consecutive slots each scheduled
	// leader holds (NUM_CONSECUTIVE_LEADER_SLOTS = 4 on mainnet); a
	// crashed leader therefore blanks a whole multi-slot window.
	ConsecutiveSlots int
	// UpcomingLeaders is how many future leader windows receive
	// forwarded transactions in addition to the current one.
	UpcomingLeaders int
	// ForwardBatch caps the transactions a node forwards per retry tick.
	ForwardBatch int
	// RetryInterval is the cadence at which an RPC node re-forwards
	// unconfirmed transactions (the client-side retry loop of the
	// "Retrying Transactions" docs).
	RetryInterval time.Duration
	// MaxBlockTxs caps a leader's per-slot block.
	MaxBlockTxs int
	// ScheduleSeed perturbs the leader schedule.
	ScheduleSeed uint64
	// Base configures the shared validator core.
	Base chain.BaseConfig
	// Conn configures the peer connection layer.
	Conn simnet.ConnParams
}

// DefaultConfig returns the production-like parameters used by the STABL
// experiments.
func DefaultConfig() Config {
	return Config{
		SlotDuration:        400 * time.Millisecond,
		WarmupStartSlots:    32,
		EpochSlots:          8192,
		MinEpochSlotsForEAH: 360,
		MaxRootLagSlots:     32,
		ConsecutiveSlots:    4,
		UpcomingLeaders:     1,
		ForwardBatch:        400,
		RetryInterval:       2 * time.Second,
		MaxBlockTxs:         300,
		Base: chain.BaseConfig{
			ExecRate: 5000,
		},
		Conn: simnet.ConnParams{
			HeartbeatInterval: 2 * time.Second,
			IdleTimeout:       15 * time.Second,
			ReconnectBase:     10 * time.Second,
			ReconnectCap:      30 * time.Second,
			Multiplier:        2,
			HandshakeTimeout:  2 * time.Second,
		},
	}
}

// System implements chain.System for Solana.
type System struct {
	cfg Config
}

var _ chain.System = (*System)(nil)

// NewSystem creates a Solana system with the given configuration.
func NewSystem(cfg Config) *System { return &System{cfg: cfg} }

// Default creates a Solana system with DefaultConfig.
func Default() *System { return NewSystem(DefaultConfig()) }

// Name implements chain.System.
func (s *System) Name() string { return "Solana" }

// Tolerance implements chain.System: t = ceil(n/3) - 1.
func (s *System) Tolerance(n int) int { return chain.ToleranceThird(n) }

// ConnParams implements chain.System.
func (s *System) ConnParams() simnet.ConnParams { return s.cfg.Conn }

// NewValidator implements chain.System.
func (s *System) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis []chain.GenesisAccount) simnet.Handler {
	v := &validator{
		cfg:  s.cfg,
		base: chain.NewBaseNode(id, peers, mon, s.cfg.Base),
		n:    len(peers),
		t:    chain.ToleranceThird(len(peers)),
	}
	v.quorum = committee.Quorum(v.n, v.t)
	v.lastRootedSlot = -1
	v.base.Ledger.Genesis(genesis)
	return v
}

// Wire messages.
type (
	// txForward sends a transaction straight to a scheduled leader
	// (Solana has no mempool).
	txForward struct {
		Tx chain.Tx
	}
	// blockMsg is a leader's frozen bank for its slot.
	blockMsg struct {
		Slot   int
		Height int
		Parent chain.Hash
		Leader simnet.NodeID
		Txs    []chain.Tx
	}
	// voteMsg is a tower-vote on a slot's bank.
	voteMsg struct {
		Slot  int
		Voter simnet.NodeID
	}
)

type validator struct {
	cfg    Config
	base   *chain.BaseNode
	n      int
	t      int
	quorum int
	state
}

// state is what a validator mutates after construction, and its checkpoint.
// Frozen bank messages are immutable once buffered.
type state struct {
	ctx    *simnet.Context
	ticker *sim.Ticker
	retry  *sim.Ticker
	blocks map[int]*blockMsg
	// eahByEpoch holds the Epoch Accounts Hash computed for each epoch
	// (between its ¼ and ¾ marks); integration at the ¾ mark panics when
	// the hash is missing in a too-short epoch.
	eahByEpoch map[int]chain.Hash
	votes      chain.Tally[struct{}] // by slot; a vote names no value
	rooted     map[int]bool

	// lastRootedSlot persists across restarts (it is derived from the
	// ledger, which survives).
	lastRootedSlot int
	// panicked persists: a validator that hit the EAH panic crashes
	// again on restart until the operator intervenes.
	panicked   bool
	panickedAt time.Duration
}

var _ simnet.Handler = (*validator)(nil)

// Start implements simnet.Handler.
func (v *validator) Start(ctx *simnet.Context) {
	v.ctx = ctx
	v.base.Reset(ctx)
	v.blocks = make(map[int]*blockMsg)
	v.votes = chain.NewTally[struct{}](v.n, v.quorum, nil)
	v.rooted = make(map[int]bool)
	v.eahByEpoch = make(map[int]chain.Hash)
	v.base.OnCommit = v.onBlockApplied
	v.base.OnLocalSubmit = v.forwardOne
	if v.panicked {
		return
	}
	if v.base.Ledger.Height() > 0 {
		// Restarting validator: before resuming it validates the EAH
		// state of the epoch it left off in. If rooting stopped before
		// that epoch's ¾ mark and the epoch was too short for the EAH
		// schedule, wait_get_epoch_accounts_hash panics.
		if v.eahBrokenForSlot(v.lastRootedSlot) {
			v.panic()
			return
		}
		v.base.StartCatchUp()
	}
	v.ticker = ctx.Every(v.cfg.SlotDuration, v.onSlot)
	v.retry = ctx.Every(v.cfg.RetryInterval, v.forward)
}

// Stop implements simnet.Handler.
func (v *validator) Stop() {
	if v.ticker != nil {
		v.ticker.Stop()
	}
	if v.retry != nil {
		v.retry.Stop()
	}
}

// Base exposes the validator core.
func (v *validator) Base() *chain.BaseNode { return v.base }

// Panicked reports whether (and when) the validator hit the EAH panic.
func (v *validator) Panicked() (bool, time.Duration) { return v.panicked, v.panickedAt }

// panic wedges the validator permanently, modelling the process abort.
func (v *validator) panic() {
	if v.panicked {
		return
	}
	v.panicked = true
	v.panickedAt = v.ctx.Now()
	if v.ticker != nil {
		v.ticker.Stop()
	}
	if v.retry != nil {
		v.retry.Stop()
	}
}

// Deliver implements simnet.Handler.
func (v *validator) Deliver(from simnet.NodeID, payload any) {
	if v.panicked {
		return
	}
	payload, ok := v.base.Unwrap(from, payload)
	if !ok {
		return
	}
	if v.base.HandleClient(from, payload) {
		return
	}
	if v.base.HandleSync(from, payload) {
		return
	}
	switch msg := payload.(type) {
	case txForward:
		v.base.Pool.Add(msg.Tx)
	case blockMsg:
		v.onBlock(msg)
	case voteMsg:
		v.onVote(msg)
	}
}

// Slot schedule ----------------------------------------------------------

// currentSlot derives the slot index from the PoH clock.
func (v *validator) currentSlot() int {
	return int(v.ctx.Now() / v.cfg.SlotDuration)
}

// epochOfSlot returns (epoch index, first slot, length) for a slot,
// accounting for the geometric warm-up progression.
func (v *validator) epochOfSlot(slot int) (int, int, int) {
	start := 0
	length := v.cfg.WarmupStartSlots
	epoch := 0
	for {
		if length >= v.cfg.EpochSlots {
			length = v.cfg.EpochSlots
		}
		if slot < start+length {
			return epoch, start, length
		}
		start += length
		epoch++
		if length < v.cfg.EpochSlots {
			length *= 2
		}
	}
}

// Leader returns the scheduled leader of a slot: a deterministic
// pseudo-random schedule computed identically by every validator, assigning
// ConsecutiveSlots-long windows per leader.
func (v *validator) Leader(slot int) simnet.NodeID {
	window := slot
	if v.cfg.ConsecutiveSlots > 1 {
		window = slot / v.cfg.ConsecutiveSlots
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(window >> (8 * i))
		buf[8+i] = byte(v.cfg.ScheduleSeed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return v.base.Peers[h.Sum64()%uint64(v.n)]
}

// onSlot drives the per-slot work: EAH bookkeeping, transaction forwarding,
// and block production when this validator leads the slot.
func (v *validator) onSlot() {
	if v.panicked {
		return
	}
	slot := v.currentSlot()
	if slot > 0 && v.Leader(slot) != v.Leader(slot-1) {
		v.base.Consensus(metrics.EventLeaderChange, slot, v.Leader(slot), "leader window rotation")
	}
	// A leader broadcasts a block every slot, even an empty one, so a slot
	// still blockless two slots later means its leader was down or cut off.
	if miss := slot - 2; miss >= 0 && v.blocks[miss] == nil && !v.rooted[miss] {
		v.base.Consensus(metrics.EventTimeout, miss, v.Leader(miss), "leader window produced no block")
	}
	v.checkEAH(slot)
	if v.panicked {
		return
	}
	if v.Leader(slot) == v.base.ID {
		v.produce(slot)
	}
}

// checkEAH drives the Epoch Accounts Hash lifecycle. The calculation runs
// between the ¼ and ¾ marks of each epoch and needs a recently rooted bank
// to snapshot; the integration at the ¾ mark requires the calculation to
// have completed. In an epoch too short for this schedule a disruption
// leaves the hash missing and the integration precondition
// (wait_get_epoch_accounts_hash) panics.
func (v *validator) checkEAH(slot int) {
	epoch, start, length := v.epochOfSlot(slot)
	calcMark := start + length/4
	integrateMark := start + (3*length)/4
	if slot >= calcMark && slot < integrateMark {
		v.tryComputeEAH(epoch, slot)
	}
	if slot != integrateMark {
		return
	}
	if length >= v.cfg.MinEpochSlotsForEAH {
		// A long epoch leaves enough slack to complete the hash and
		// root the carrying bank late.
		v.tryComputeEAH(epoch, slot)
		return
	}
	// Integration in a short epoch: the hash must exist AND a bank close
	// to the mark must be rootable to carry it (freeze-to-rooting needs
	// at least 32 slots of buffer).
	_, calcDone := v.eahByEpoch[epoch]
	rootingLive := v.lastRootedSlot >= slot-v.cfg.MaxRootLagSlots
	if !calcDone || !rootingLive {
		v.panic()
	}
}

// tryComputeEAH snapshots the accounts hash once per epoch, provided a
// recently rooted bank exists to snapshot from.
func (v *validator) tryComputeEAH(epoch, slot int) {
	if _, done := v.eahByEpoch[epoch]; done {
		return
	}
	if v.lastRootedSlot < slot-v.cfg.MaxRootLagSlots {
		return // no rooted bank near the snapshot point
	}
	v.eahByEpoch[epoch] = v.base.Ledger.StateHash()
}

// EAH returns the computed Epoch Accounts Hash for an epoch, if any.
func (v *validator) EAH(epoch int) (chain.Hash, bool) {
	h, ok := v.eahByEpoch[epoch]
	return h, ok
}

// eahBrokenForSlot is the restart-time precondition check: the epoch that
// contains the validator's last rooted slot must have completed its EAH.
func (v *validator) eahBrokenForSlot(lastRooted int) bool {
	if lastRooted < 0 {
		return false
	}
	_, start, length := v.epochOfSlot(lastRooted)
	if length >= v.cfg.MinEpochSlotsForEAH {
		return false
	}
	mark := start + (3*length)/4
	return lastRooted < mark-v.cfg.MaxRootLagSlots && v.currentSlot() > mark
}

// forwardOne pushes a freshly submitted transaction straight to the current
// and upcoming leaders; with a known leader schedule there is nothing to
// wait for, which is why submitting to extra validators barely helps (§7).
func (v *validator) forwardOne(tx chain.Tx) {
	if v.base.Gossips() {
		// Overlay mode: the scheduled leader may not be an overlay
		// neighbor, so the transaction rides the broadcast tree; every
		// validator pools it (txForward handling is an unconditional
		// pool add either way).
		v.base.Broadcast(txForward{Tx: tx})
		return
	}
	for _, leader := range v.upcomingLeaders() {
		v.ctx.Send(leader, txForward{Tx: tx})
	}
}

// upcomingLeaders lists the owners of the current and next UpcomingLeaders
// slots, excluding this node. With consecutive leader slots the "upcoming
// leader" is usually the same validator as the current one, which is why a
// crashed leader blanks its whole window despite the forwarding (§4).
func (v *validator) upcomingLeaders() []simnet.NodeID {
	slot := v.currentSlot()
	seen := make(map[simnet.NodeID]bool, v.cfg.UpcomingLeaders+1)
	out := make([]simnet.NodeID, 0, v.cfg.UpcomingLeaders+1)
	for i := 0; i <= v.cfg.UpcomingLeaders; i++ {
		leader := v.Leader(slot + i)
		if leader == v.base.ID || seen[leader] {
			continue
		}
		seen[leader] = true
		out = append(out, leader)
	}
	return out
}

// forward retries unconfirmed transactions on the RPC retry cadence: if a
// leader could not process a transaction, responsibility passes to the next
// leaders.
func (v *validator) forward() {
	batch := make([]chain.Tx, 0, v.cfg.ForwardBatch)
	for _, tx := range v.base.Pool.Pending() {
		if v.base.InPipeline(tx.ID) {
			continue
		}
		batch = append(batch, tx)
		if len(batch) >= v.cfg.ForwardBatch {
			break
		}
	}
	if len(batch) == 0 {
		return
	}
	if v.base.Gossips() {
		for _, tx := range batch {
			v.base.Broadcast(txForward{Tx: tx})
		}
		return
	}
	for _, leader := range v.upcomingLeaders() {
		for _, tx := range batch {
			v.ctx.Send(leader, txForward{Tx: tx})
		}
	}
}

// produce freezes this slot's bank and broadcasts it.
func (v *validator) produce(slot int) {
	v.base.Consensus(metrics.EventRoundStart, slot, v.base.ID, "")
	txs := v.base.ProposalTxs(v.cfg.MaxBlockTxs)
	msg := blockMsg{
		Slot:   slot,
		Height: v.base.ChainTip(),
		Parent: v.base.TipHash(),
		Leader: v.base.ID,
		Txs:    txs,
	}
	v.base.Broadcast(msg)
	v.onBlock(msg)
}

func (v *validator) onBlock(msg blockMsg) {
	if v.Leader(msg.Slot) != msg.Leader {
		return
	}
	if _, dup := v.blocks[msg.Slot]; dup {
		return
	}
	m := msg
	v.blocks[msg.Slot] = &m
	vote := voteMsg{Slot: msg.Slot, Voter: v.base.ID}
	v.base.Broadcast(vote)
	v.onVote(vote)
}

func (v *validator) onVote(msg voteMsg) {
	if v.rooted[msg.Slot] {
		return
	}
	v.votes.Add(msg.Slot, 0, msg.Voter, struct{}{})
	block := v.blocks[msg.Slot]
	if _, ok := v.votes.Quorum(msg.Slot, 0); block == nil || !ok {
		return
	}
	v.rooted[msg.Slot] = true
	v.base.Consensus(metrics.EventCommit, msg.Slot, block.Leader, "")
	v.base.SubmitBlock(chain.Block{
		Height:    block.Height,
		Proposer:  block.Leader,
		Parent:    block.Parent,
		Txs:       block.Txs,
		DecidedAt: v.ctx.Now(),
	})
	if msg.Slot > v.lastRootedSlot {
		v.lastRootedSlot = msg.Slot
	}
	v.gc(msg.Slot)
	if v.base.HeadPending() > v.base.Ledger.Height() {
		v.base.StartCatchUp()
	}
}

// onBlockApplied keeps the root clock in sync when blocks arrive via
// catch-up rather than live votes.
func (v *validator) onBlockApplied(b chain.Block, _ []chain.Tx) {
	slot := int(b.DecidedAt / v.cfg.SlotDuration)
	if slot > v.lastRootedSlot {
		v.lastRootedSlot = slot
	}
}

func (v *validator) gc(upto int) {
	for s := range v.blocks {
		if s < upto-64 {
			delete(v.blocks, s)
			delete(v.rooted, s)
		}
	}
	v.votes.Prune(upto - 64)
}
