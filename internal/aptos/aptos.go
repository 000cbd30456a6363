// Package aptos models the Aptos blockchain (STABL §2): the leader-based
// DiemBFT (AptosBFT) consensus derived from HotStuff, with a quadratic
// view-change mechanism, a gossiped mempool, and Block-STM speculative
// execution.
//
// The model reproduces the behaviours STABL measures:
//
//   - Crashed leaders force view changes with exponential timeouts; the
//     throughput oscillates and damps out as leader reputation excludes the
//     crashed validators from rotation (§4, "the throughput instability
//     reduces in about 82 seconds").
//   - With f = t+1 transient failures the quorum disappears; after the
//     reboot the chain resumes but its bounded execution budget cannot drain
//     the accumulated backlog, leaving throughput degraded for the rest of
//     the run (§5).
//   - Partition recovery is fast because peer connectivity is re-probed
//     every few seconds with a small backoff cap (§6).
//   - Redundant submissions from the secure client trigger speculative
//     re-execution (SEQUENCE_NUMBER_TOO_OLD), burning execution budget and
//     degrading latency (§7).
package aptos

import (
	"time"

	"stabl/internal/chain"
	"stabl/internal/committee"
	"stabl/internal/metrics"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// Config parameterizes the Aptos model.
type Config struct {
	// BaseTimeout is the initial round (view) timeout.
	BaseTimeout time.Duration
	// TimeoutGrowth multiplies the timeout after consecutive failures.
	TimeoutGrowth float64
	// TimeoutCap bounds the exponential growth.
	TimeoutCap time.Duration
	// ViewChangeDelay models the quadratic communication cost of a view
	// change: extra processing time added before entering the new round.
	ViewChangeDelay time.Duration
	// MinRoundInterval paces successful rounds.
	MinRoundInterval time.Duration
	// MaxBlockTxs caps a proposal.
	MaxBlockTxs int
	// FailThreshold is how many timeout-quorums a leader suffers before
	// reputation excludes it from rotation.
	FailThreshold int
	// ExcludeRounds is how long (in rounds) an excluded leader stays out.
	ExcludeRounds int
	// DuplicateGossipCost is the execution-budget charge for receiving a
	// gossiped transaction that is already committed (speculative
	// re-execution of a stale sequence number).
	DuplicateGossipCost float64
	// Base configures the shared validator core. Base.ExecRate is the
	// binding drain constraint after an outage.
	Base chain.BaseConfig
	// Conn configures the peer connection layer.
	Conn simnet.ConnParams
}

// DefaultConfig returns the production-like parameters used by the STABL
// experiments.
func DefaultConfig() Config {
	return Config{
		BaseTimeout:         time.Second,
		TimeoutGrowth:       1.5,
		TimeoutCap:          10 * time.Second,
		ViewChangeDelay:     200 * time.Millisecond,
		MinRoundInterval:    time.Second,
		MaxBlockTxs:         350,
		FailThreshold:       3,
		ExcludeRounds:       600,
		DuplicateGossipCost: 0.7,
		Base: chain.BaseConfig{
			// ~330 tx/s execution: comfortable for the 200 TPS
			// workload, far too little spare capacity to clear a
			// 133-second backlog (STABL §5).
			ExecRate:          330,
			ExecBurst:         100,
			DuplicateExecCost: 1,
		},
		Conn: simnet.ConnParams{
			HeartbeatInterval: time.Second,
			IdleTimeout:       10 * time.Second,
			ReconnectBase:     2 * time.Second, // exponential backoff base 2 s
			ReconnectCap:      5 * time.Second, // connectivity re-checked every 5 s
			Multiplier:        2,
			HandshakeTimeout:  2 * time.Second,
		},
	}
}

// System implements chain.System for Aptos.
type System struct {
	cfg Config
}

var _ chain.System = (*System)(nil)

// NewSystem creates an Aptos system with the given configuration.
func NewSystem(cfg Config) *System { return &System{cfg: cfg} }

// Default creates an Aptos system with DefaultConfig.
func Default() *System { return NewSystem(DefaultConfig()) }

// Name implements chain.System.
func (s *System) Name() string { return "Aptos" }

// Tolerance implements chain.System: t = ceil(n/3) - 1.
func (s *System) Tolerance(n int) int { return chain.ToleranceThird(n) }

// ConnParams implements chain.System.
func (s *System) ConnParams() simnet.ConnParams { return s.cfg.Conn }

// WithResources implements the harness resource bump used by the
// secure-client experiment: a bigger VM means a larger execution budget.
func (s *System) WithResources(scale float64) chain.System {
	cfg := s.cfg
	cfg.Base.ExecRate *= scale
	return NewSystem(cfg)
}

// NewValidator implements chain.System.
func (s *System) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis []chain.GenesisAccount) simnet.Handler {
	v := &validator{
		cfg:  s.cfg,
		base: chain.NewBaseNode(id, peers, mon, s.cfg.Base),
		n:    len(peers),
		t:    chain.ToleranceThird(len(peers)),
	}
	v.quorum = committee.Quorum(v.n, v.t)
	for _, g := range genesis {
		v.base.Ledger.Mint(g.Addr, g.Balance)
	}
	return v
}

// Wire messages.
type (
	// txGossip shares a mempool transaction with all validators.
	txGossip struct {
		Tx chain.Tx
	}
	// proposalMsg is the round leader's block.
	proposalMsg struct {
		Round  int
		Height int
		Leader simnet.NodeID
		Txs    []chain.Tx
	}
	// voteMsg is a replica's vote, sent to the leader.
	voteMsg struct {
		Round  int
		Height int
		Voter  simnet.NodeID
	}
	// commitMsg is the leader's quorum-certified block.
	commitMsg struct {
		Round int
		Block chain.Block
	}
	// timeoutMsg signals a view change; the all-to-all exchange is the
	// quadratic cost inherited from PBFT.
	timeoutMsg struct {
		Round int
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
// Queued pacemaker closures capture only round numbers and the validator
// pointer, and proposed transaction slices are immutable once stored.
type state struct {
	ctx        *simnet.Context
	round      int
	consFails  int
	roundTimer sim.Timer
	votes      map[int]map[simnet.NodeID]bool
	timeouts   map[int]map[simnet.NodeID]bool
	proposed   map[int][]chain.Tx
	committed  map[int]bool
	// Leader reputation (volatile, converges via timeout quorums).
	failCount  map[simnet.NodeID]int
	excludedAt map[simnet.NodeID]int
	viewJumps  uint64
}

var _ simnet.Handler = (*validator)(nil)

// Start implements simnet.Handler.
func (v *validator) Start(ctx *simnet.Context) {
	v.ctx = ctx
	v.base.Reset(ctx)
	v.round = 0
	v.consFails = 0
	v.votes = make(map[int]map[simnet.NodeID]bool)
	v.timeouts = make(map[int]map[simnet.NodeID]bool)
	v.proposed = make(map[int][]chain.Tx)
	v.committed = make(map[int]bool)
	v.failCount = make(map[simnet.NodeID]int)
	v.excludedAt = make(map[simnet.NodeID]int)
	v.base.OnLocalSubmit = v.gossipTx
	v.base.OnCaughtUp = func() {}
	if v.base.Ledger.Height() > 0 {
		// Restart: fetch missed blocks; round position is learned from
		// live traffic.
		v.base.StartCatchUp()
	}
	v.enterRound(v.round, 0)
}

// Stop implements simnet.Handler.
func (v *validator) Stop() {
	v.roundTimer.Stop()
}

// Base exposes the validator core.
func (v *validator) Base() *chain.BaseNode { return v.base }

// ViewJumps counts how many rounds were skipped via timeout quorums.
func (v *validator) ViewJumps() uint64 { return v.viewJumps }

// Deliver implements simnet.Handler.
func (v *validator) Deliver(from simnet.NodeID, payload any) {
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
	case txGossip:
		v.onTxGossip(msg)
	case proposalMsg:
		v.onProposal(msg)
	case voteMsg:
		v.onVote(msg)
	case commitMsg:
		v.onCommit(msg)
	case timeoutMsg:
		v.onTimeout(msg)
	}
}

// gossipTx broadcasts a locally submitted transaction to every validator so
// any leader can include it (Aptos' shared mempool).
func (v *validator) gossipTx(tx chain.Tx) {
	v.base.Broadcast(txGossip{Tx: tx})
}

func (v *validator) onTxGossip(msg txGossip) {
	if _, committed := v.base.Ledger.Committed(msg.Tx.ID); committed {
		// Stale sequence number: Block-STM speculatively re-executes
		// and aborts (SEQUENCE_NUMBER_TOO_OLD).
		v.base.ChargeExec(v.cfg.DuplicateGossipCost)
		return
	}
	if !v.base.Pool.Add(msg.Tx) {
		// Redundant copy of a pending transaction (the secure client
		// fed it to several validators): Block-STM still executes it
		// speculatively before aborting, stealing CPU from the next
		// block's execution.
		v.base.AddExecCost(v.cfg.DuplicateGossipCost)
	}
}

// leader returns the expected leader of a round under this node's local
// reputation view.
func (v *validator) leader(round int) simnet.NodeID {
	for i := 0; i < v.n; i++ {
		c := v.base.Peers[(round+i)%v.n]
		if !v.excluded(c, round) {
			return c
		}
	}
	return v.base.Peers[round%v.n]
}

func (v *validator) excluded(c simnet.NodeID, round int) bool {
	if v.failCount[c] < v.cfg.FailThreshold {
		return false
	}
	if round-v.excludedAt[c] > v.cfg.ExcludeRounds {
		// Second chance: one more failure re-excludes immediately.
		v.failCount[c] = v.cfg.FailThreshold - 1
		return false
	}
	return true
}

// enterRound arms the pacemaker for a round; the leader proposes after
// delay (used to pace successful rounds and model view-change cost).
func (v *validator) enterRound(round int, delay time.Duration) {
	v.round = round
	v.roundTimer.Stop()
	v.base.Consensus(metrics.EventRoundStart, round, v.leader(round), "")
	v.roundTimer = v.ctx.After(delay+v.timeout(), func() { v.onLocalTimeout(round) })
	if v.leader(round) == v.base.ID {
		v.ctx.After(delay, func() { v.propose(round) })
	}
}

func (v *validator) timeout() time.Duration {
	d := v.cfg.BaseTimeout
	for i := 0; i < v.consFails; i++ {
		d = time.Duration(float64(d) * v.cfg.TimeoutGrowth)
		if d >= v.cfg.TimeoutCap {
			return v.cfg.TimeoutCap
		}
	}
	return d
}

func (v *validator) propose(round int) {
	if round != v.round {
		return
	}
	if _, done := v.proposed[round]; done {
		return
	}
	height := v.base.ChainTip()
	txs := v.base.ProposalTxs(v.cfg.MaxBlockTxs)
	v.proposed[round] = txs
	msg := proposalMsg{Round: round, Height: height, Leader: v.base.ID, Txs: txs}
	v.base.Broadcast(msg)
	v.onProposal(msg) // count self
}

func (v *validator) onProposal(msg proposalMsg) {
	if msg.Round < v.round {
		return
	}
	if msg.Round > v.round {
		// A proposal for a later round is evidence the network moved
		// on; adopt it (the QC chain in real DiemBFT).
		v.jumpTo(msg.Round)
	}
	if v.leader(msg.Round) != msg.Leader {
		return
	}
	vote := voteMsg{Round: msg.Round, Height: msg.Height, Voter: v.base.ID}
	switch {
	case msg.Leader == v.base.ID:
		v.onVote(vote)
	case v.base.Gossips():
		// Overlay mode: the leader may not be an overlay neighbor, so the
		// vote travels the broadcast tree instead of a direct send.
		v.base.Broadcast(vote)
	default:
		v.ctx.Send(msg.Leader, vote)
	}
}

func (v *validator) onVote(msg voteMsg) {
	if msg.Round != v.round || v.committed[msg.Round] {
		return
	}
	if v.base.Gossips() {
		// Votes are broadcast over the overlay, so every validator sees
		// them; only the round's proposer tallies — it alone holds the
		// proposal content a certificate would certify.
		if _, mine := v.proposed[msg.Round]; !mine {
			return
		}
	}
	votes, ok := v.votes[msg.Round]
	if !ok {
		votes = make(map[simnet.NodeID]bool)
		v.votes[msg.Round] = votes
	}
	votes[msg.Voter] = true
	if len(votes) < v.quorum {
		return
	}
	v.committed[msg.Round] = true
	block := chain.Block{
		Height:    v.base.ChainTip(),
		Proposer:  v.base.ID,
		Parent:    v.base.TipHash(),
		Txs:       v.proposed[msg.Round],
		DecidedAt: v.ctx.Now(),
	}
	msgOut := commitMsg{Round: msg.Round, Block: block}
	v.base.Broadcast(msgOut)
	v.handleCommit(msgOut)
}

func (v *validator) onCommit(msg commitMsg) {
	v.handleCommit(msg)
}

func (v *validator) handleCommit(msg commitMsg) {
	v.base.Consensus(metrics.EventCommit, msg.Round, msg.Block.Proposer, "")
	v.base.SubmitBlock(msg.Block)
	if msg.Round < v.round {
		return
	}
	v.consFails = 0
	v.advance(msg.Round+1, v.cfg.MinRoundInterval)
}

func (v *validator) onLocalTimeout(round int) {
	if round != v.round {
		return
	}
	v.base.Consensus(metrics.EventTimeout, round, v.leader(round), "pacemaker timeout")
	msg := timeoutMsg{Round: round, Voter: v.base.ID}
	v.base.Broadcast(msg)
	// Keep the pacemaker alive: re-arm so the timeout is re-broadcast
	// until the round advances. Without this a network that temporarily
	// lost its quorum would never re-assemble one.
	v.roundTimer = v.ctx.After(v.timeout(), func() { v.onLocalTimeout(round) })
	v.onTimeout(msg)
}

func (v *validator) onTimeout(msg timeoutMsg) {
	if msg.Round < v.round {
		return
	}
	touts, ok := v.timeouts[msg.Round]
	if !ok {
		touts = make(map[simnet.NodeID]bool)
		v.timeouts[msg.Round] = touts
	}
	touts[msg.Voter] = true
	// t+1 timeouts prove at least one correct node gave up on the round:
	// join the view change. A full quorum completes it.
	if len(touts) >= v.t+1 && msg.Round > v.round {
		v.jumpTo(msg.Round)
	}
	if msg.Round == v.round && len(touts) >= v.quorum {
		v.viewChange(msg.Round)
	}
}

// viewChange marks the failed leader and enters the next round with grown
// timeout and the quadratic view-change processing delay.
func (v *validator) viewChange(round int) {
	failed := v.leader(round)
	v.base.Consensus(metrics.EventLeaderChange, round, failed, "view change away from failed leader")
	v.failCount[failed]++
	if v.failCount[failed] >= v.cfg.FailThreshold {
		v.excludedAt[failed] = round
	}
	v.consFails++
	v.advance(round+1, v.cfg.ViewChangeDelay)
}

// jumpTo abandons rounds the network has left behind.
func (v *validator) jumpTo(round int) {
	if round <= v.round {
		return
	}
	v.viewJumps++
	v.advance(round, 0)
}

func (v *validator) advance(round int, delay time.Duration) {
	if round <= v.round {
		return
	}
	for r := range v.votes {
		if r < round {
			delete(v.votes, r)
		}
	}
	for r := range v.timeouts {
		if r < round-1 {
			delete(v.timeouts, r)
		}
	}
	for r := range v.proposed {
		if r < round {
			delete(v.proposed, r)
			delete(v.committed, r)
		}
	}
	v.enterRound(round, delay)
	// A node whose chain is behind its pipeline has missed commits.
	if v.base.HeadPending() > v.base.Ledger.Height() {
		v.base.StartCatchUp()
	}
}
