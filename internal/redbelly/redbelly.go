// Package redbelly models the Redbelly blockchain (STABL §2): the
// leaderless, deterministic DBFT consensus with a weak coordinator that
// cannot block convergence, and the superblock optimization that commits the
// union of all validators' proposals in every round.
//
// The model reproduces the behaviours STABL measures:
//
//   - Crash insensitivity: no leader means no round depends on a specific
//     node; f = t crashes only shrink the proposal union (§4).
//   - Fast transient recovery: restarted nodes actively reconnect, catch up
//     via block sync, and the quorum resumes within a few rounds (§5).
//   - Timeout-bound partition recovery: connections idle out after
//     MaxIdleTime (30 s) and reconnection retries back off, so healing a
//     partition takes tens of seconds to take effect (§6).
//   - Secure-client benefit: a transaction submitted to t+1 validators sits
//     in t+1 mempools and joins the superblock on whichever proposes first
//     (§7).
package redbelly

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"stabl/internal/chain"
	"stabl/internal/committee"
	"stabl/internal/metrics"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// Config parameterizes the Redbelly model.
type Config struct {
	// MaxProposalTxs caps one validator's per-round proposal.
	MaxProposalTxs int
	// ProposalGrace is how long a node keeps collecting proposals after
	// reaching quorum, letting estimates converge without a coordinator.
	ProposalGrace time.Duration
	// ProposalTimeout bounds the proposal collection phase.
	ProposalTimeout time.Duration
	// CoordTimeout bounds waiting for the weak coordinator's hint.
	CoordTimeout time.Duration
	// ResendInterval re-broadcasts proposals/votes of an undecided round.
	ResendInterval time.Duration
	// MinRoundInterval paces round starts.
	MinRoundInterval time.Duration
	// InterBlock is the delay between deciding and starting the next
	// round.
	InterBlock time.Duration
	// ProposalJitter models per-node processing skew before proposing;
	// it desynchronizes proposal instants, which is what lets a
	// redundantly submitted transaction catch an earlier superblock
	// (§7).
	ProposalJitter time.Duration
	// Superblock disables the union optimization when false: only the
	// round coordinator's proposal commits (ablation of DESIGN.md §5).
	Superblock bool
	// Base configures the shared validator core.
	Base chain.BaseConfig
	// Conn configures the peer connection layer.
	Conn simnet.ConnParams
}

// DefaultConfig returns the production-like parameters used by the STABL
// experiments.
func DefaultConfig() Config {
	return Config{
		MaxProposalTxs:   500,
		ProposalGrace:    200 * time.Millisecond,
		ProposalTimeout:  2 * time.Second,
		CoordTimeout:     time.Second,
		ResendInterval:   2 * time.Second,
		MinRoundInterval: 250 * time.Millisecond,
		InterBlock:       50 * time.Millisecond,
		ProposalJitter:   150 * time.Millisecond,
		Superblock:       true,
		Base: chain.BaseConfig{
			ExecRate: 5000, // ample execution budget: backlog drains fast
		},
		Conn: simnet.ConnParams{
			HeartbeatInterval: 5 * time.Second,
			IdleTimeout:       30 * time.Second, // MaxIdleTime
			ReconnectBase:     45 * time.Second,
			ReconnectCap:      90 * time.Second,
			Multiplier:        2,
			HandshakeTimeout:  2 * time.Second,
		},
	}
}

// System implements chain.System for Redbelly.
type System struct {
	cfg Config
}

var _ chain.System = (*System)(nil)

// NewSystem creates a Redbelly system with the given configuration.
func NewSystem(cfg Config) *System { return &System{cfg: cfg} }

// Default creates a Redbelly system with DefaultConfig.
func Default() *System { return NewSystem(DefaultConfig()) }

// Name implements chain.System.
func (s *System) Name() string { return "Redbelly" }

// Tolerance implements chain.System: t = ceil(n/3) - 1.
func (s *System) Tolerance(n int) int { return chain.ToleranceThird(n) }

// ConnParams implements chain.System.
func (s *System) ConnParams() simnet.ConnParams { return s.cfg.Conn }

// NewValidator implements chain.System.
func (s *System) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis *chain.Genesis) simnet.Handler {
	v := &validator{
		cfg:  s.cfg,
		base: chain.NewBaseNode(id, peers, mon, s.cfg.Base),
		n:    len(peers),
		t:    chain.ToleranceThird(len(peers)),
	}
	v.quorum = committee.Quorum(v.n, v.t)
	v.base.Ledger.Genesis(genesis)
	return v
}

// Wire messages. Every message carries its round.
type (
	// proposalMsg is one validator's per-round batch.
	proposalMsg struct {
		Round    int
		Proposer simnet.NodeID
		Txs      []chain.Tx
	}
	// voteMsg carries a binary-consensus estimate: the set of proposers
	// whose proposals the voter wants included.
	voteMsg struct {
		Round  int
		Sub    int
		Voter  simnet.NodeID
		Est    []simnet.NodeID
		Resend bool
	}
	// coordMsg is the weak coordinator's tie-breaking hint.
	coordMsg struct {
		Round int
		Sub   int
		Est   []simnet.NodeID
	}
	// decideMsg carries a decided superblock so laggards converge
	// without a separate fetch protocol.
	decideMsg struct {
		Round int
		Block chain.Block
	}
)

type roundState struct {
	round     int
	startedAt time.Duration
	proposals map[simnet.NodeID][]chain.Tx
	votes     chain.Tally[string] // (round, sub) -> est key
	ests      map[string][]simnet.NodeID
	myVote    map[int][]simnet.NodeID
	estimated bool
	decided   bool
	sub       int
	coordSent map[int]bool
	// pendingDecide holds an agreed proposer set whose contents are not
	// all locally available yet; the decision completes when the missing
	// proposals (or a decide broadcast) arrive.
	pendingDecide []simnet.NodeID
}

func newRoundState(round int, now time.Duration, n, quorum int) *roundState {
	return &roundState{
		round:     round,
		startedAt: now,
		proposals: make(map[simnet.NodeID][]chain.Tx),
		votes:     chain.NewTally[string](n, quorum, nil),
		ests:      make(map[string][]simnet.NodeID),
		myVote:    make(map[int][]simnet.NodeID),
		coordSent: make(map[int]bool),
	}
}

type validator struct {
	cfg    Config
	base   *chain.BaseNode
	n      int
	t      int
	quorum int
	nodeState
}

// nodeState is what a validator mutates after construction, and its
// checkpoint. The roundState objects are identity-preserved: queued proposal,
// grace and coordinator closures hold the pointers, so a checkpoint keeps the
// map's pointers and carries each round's contents beside it (snapshot.go).
type nodeState struct {
	ctx       *simnet.Context
	round     int
	states    map[int]*roundState
	resend    *sim.Ticker
	decides   uint64
	jitterRNG *rand.Rand
}

var _ simnet.Handler = (*validator)(nil)

// Start implements simnet.Handler.
func (v *validator) Start(ctx *simnet.Context) {
	v.ctx = ctx
	v.jitterRNG = ctx.RNG("redbelly.jitter")
	v.base.Reset(ctx)
	v.states = make(map[int]*roundState)
	v.base.OnCaughtUp = func() {
		v.round = v.base.Ledger.Height()
		v.startRound(v.round)
	}
	v.resend = ctx.Every(v.cfg.ResendInterval, v.resendRound)
	if v.base.Ledger.Height() == 0 && v.round == 0 {
		v.round = 0
		v.startRound(0)
		return
	}
	// Restart: actively rejoin by catching up first.
	v.round = v.base.Ledger.Height()
	v.base.StartCatchUp()
}

// Stop implements simnet.Handler.
func (v *validator) Stop() {
	if v.resend != nil {
		v.resend.Stop()
	}
}

// Base exposes the validator core for tests and the harness.
func (v *validator) Base() *chain.BaseNode { return v.base }

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
	case proposalMsg:
		v.onProposal(from, msg)
	case voteMsg:
		v.onVote(msg)
	case coordMsg:
		v.onCoord(msg)
	case decideMsg:
		v.onDecide(msg)
	}
}

func (v *validator) state(round int) *roundState {
	st, ok := v.states[round]
	if !ok {
		st = newRoundState(round, v.ctx.Now(), v.n, v.quorum)
		v.states[round] = st
	}
	return st
}

func (v *validator) startRound(round int) {
	if round < v.round {
		return
	}
	v.round = round
	st := v.state(round)
	st.startedAt = v.ctx.Now()
	v.base.Consensus(metrics.EventRoundStart, round, v.coordinator(round, 0), "")
	jitter := time.Duration(0)
	if v.cfg.ProposalJitter > 0 {
		jitter = time.Duration(v.jitterRNG.Int63n(int64(v.cfg.ProposalJitter)))
	}
	v.ctx.After(jitter, func() {
		if v.state(round).decided {
			return
		}
		// OnCaughtUp re-enters a started round; a second proposal would pop
		// a fresh batch that peers, who keep the first one, never see.
		if _, proposed := v.state(round).proposals[v.base.ID]; proposed {
			return
		}
		txs := v.base.Pool.Pop(v.cfg.MaxProposalTxs)
		st.proposals[v.base.ID] = txs
		v.base.Broadcast(proposalMsg{Round: round, Proposer: v.base.ID, Txs: txs})
		v.maybeScheduleEstimate(round)
	})
	v.ctx.After(v.cfg.ProposalTimeout, func() {
		if cur := v.state(round); !cur.decided && cur.myVote[0] == nil {
			v.base.Consensus(metrics.EventTimeout, round, v.base.ID, "proposal quorum timeout")
		}
		v.estimate(round)
	})
	v.maybeScheduleEstimate(round)
}

func (v *validator) onProposal(from simnet.NodeID, msg proposalMsg) {
	if v.repliedIfDecided(from, msg.Round) {
		return
	}
	st := v.state(msg.Round)
	if _, dup := st.proposals[msg.Proposer]; dup {
		return
	}
	st.proposals[msg.Proposer] = msg.Txs
	if st.pendingDecide != nil {
		v.decide(msg.Round, st.pendingDecide)
	}
	v.maybeScheduleEstimate(msg.Round)
	v.maybeSendCoord(msg.Round)
}

// maybeScheduleEstimate arms the grace timer once quorum proposals arrived.
func (v *validator) maybeScheduleEstimate(round int) {
	st := v.state(round)
	if st.estimated || round != v.round {
		return
	}
	if len(st.proposals) < v.quorum {
		return
	}
	st.estimated = true
	v.ctx.After(v.cfg.ProposalGrace, func() { v.estimate(round) })
}

// estimate emits the node's sub-round-0 vote: include every proposer whose
// proposal it holds.
func (v *validator) estimate(round int) {
	st := v.state(round)
	if st.decided || st.myVote[0] != nil {
		return
	}
	est := make([]simnet.NodeID, 0, len(st.proposals))
	for p := range st.proposals {
		est = append(est, p)
	}
	sortIDs(est)
	v.castVote(round, 0, est, false)
}

func (v *validator) castVote(round, sub int, est []simnet.NodeID, resend bool) {
	st := v.state(round)
	if st.myVote[sub] == nil {
		st.myVote[sub] = est
	}
	msg := voteMsg{Round: round, Sub: sub, Voter: v.base.ID, Est: st.myVote[sub], Resend: resend}
	v.onVote(msg) // count own vote
	v.base.Broadcast(msg)
}

func (v *validator) onVote(msg voteMsg) {
	if v.repliedIfDecided(msg.Voter, msg.Round) {
		return
	}
	st := v.state(msg.Round)
	if st.decided {
		return
	}
	key := estKey(msg.Est)
	if !st.votes.Add(msg.Round, msg.Sub, msg.Voter, key) {
		return
	}
	st.ests[key] = msg.Est
	v.evaluate(msg.Round, msg.Sub)
	v.maybeSendCoord(msg.Round)
}

// evaluate checks the decision rule for (round, sub): quorum of identical
// estimates decides; a full quorum of mixed estimates advances the sub-round
// through the weak-coordinator path.
func (v *validator) evaluate(round, sub int) {
	st := v.state(round)
	if st.decided || round != v.round || sub != st.sub {
		return
	}
	if st.votes.Voters(round, sub) < v.quorum {
		return
	}
	// At most one estimate can reach quorum (quorum = n-t > n/2).
	if key, ok := st.votes.Quorum(round, sub); ok {
		v.decide(round, st.ests[key])
		return
	}
	// Mixed estimates: defer to the weak coordinator of this sub-round,
	// falling back to our majority view when it stays silent (a crashed
	// coordinator cannot block convergence).
	st.sub = sub + 1
	v.base.Consensus(metrics.EventLeaderChange, round, v.coordinator(round, sub+1), "sub-round coordinator rotation")
	v.ctx.After(v.cfg.CoordTimeout, func() {
		cur := v.state(round)
		if cur.decided || cur.myVote[sub+1] != nil {
			return
		}
		v.base.Consensus(metrics.EventTimeout, round, v.coordinator(round, sub+1), "coordinator silent")
		v.castVote(round, sub+1, v.majorityEst(round, sub), false)
	})
	v.maybeSendCoord(round)
}

// coordinator returns the weak coordinator of a sub-round.
func (v *validator) coordinator(round, sub int) simnet.NodeID {
	return v.base.Peers[(round+sub)%len(v.base.Peers)]
}

// maybeSendCoord lets this node, when it is the coordinator of the current
// sub-round and has a quorum of votes, broadcast its tie-breaking hint.
func (v *validator) maybeSendCoord(round int) {
	st := v.state(round)
	if st.decided || round != v.round || st.sub == 0 {
		return
	}
	sub := st.sub - 1
	if v.coordinator(round, sub) != v.base.ID || st.coordSent[sub] {
		return
	}
	if st.votes.Voters(round, sub) < v.quorum {
		return
	}
	st.coordSent[sub] = true
	hint := v.majorityEst(round, sub)
	msg := coordMsg{Round: round, Sub: sub, Est: hint}
	v.base.Broadcast(msg)
	v.onCoord(msg)
}

func (v *validator) onCoord(msg coordMsg) {
	st := v.state(msg.Round)
	if st.decided || st.myVote[msg.Sub+1] != nil {
		return
	}
	v.castVote(msg.Round, msg.Sub+1, msg.Est, false)
}

// majorityEst picks the most common estimate of a sub-round, breaking ties
// by the union of all voted estimates so the result grows toward inclusion.
func (v *validator) majorityEst(round, sub int) []simnet.NodeID {
	st := v.state(round)
	counts := st.votes.Values(round, sub)
	bestKey, best := "", 0
	for _, c := range counts {
		if c.Count > best || (c.Count == best && c.Value > bestKey) {
			bestKey, best = c.Value, c.Count
		}
	}
	if best*2 > st.votes.Voters(round, sub) {
		return st.ests[bestKey]
	}
	est := []simnet.NodeID{} // never nil: castVote reads nil as "not voted"
	for _, c := range counts {
		est = append(est, st.ests[c.Value]...)
	}
	sortIDs(est)
	return slices.Compact(est)
}

// decide assembles the superblock for the agreed proposer set and commits.
func (v *validator) decide(round int, est []simnet.NodeID) {
	st := v.state(round)
	if st.decided {
		return
	}
	missing := 0
	for _, p := range est {
		if _, ok := st.proposals[p]; !ok {
			missing++
		}
	}
	if v.base.ChainTip() != round {
		// The node lags behind: it cannot compute the parent link for
		// this round yet. A decide broadcast or catch-up will deliver
		// the assembled block.
		st.pendingDecide = est
		return
	}
	if missing > 0 {
		// Wait for the missing contents: resends or an assembling
		// peer's decide broadcast (which carries the full block) will
		// complete the decision.
		st.pendingDecide = est
		return
	}
	st.pendingDecide = nil
	st.decided = true
	v.base.Consensus(metrics.EventCommit, round, v.coordinator(round, 0), "superblock decided")
	v.decides++
	block := v.assemble(round, est, st)
	v.base.SubmitBlock(block)
	v.base.Broadcast(decideMsg{Round: round, Block: block})
	v.advance(round)
}

func (v *validator) assemble(round int, est []simnet.NodeID, st *roundState) chain.Block {
	include := est
	if !v.cfg.Superblock && len(est) > 0 {
		// Ablation: commit only the weak coordinator's proposal (or the
		// lowest included proposer when the coordinator is excluded).
		coord := v.coordinator(round, 0)
		include = nil
		for _, p := range est {
			if p == coord {
				include = []simnet.NodeID{p}
				break
			}
		}
		if include == nil {
			include = est[:1]
		}
	}
	var buf [16][]chain.Tx // committees past 16 proposers spill to the heap
	lists := buf[:0]
	for _, p := range include {
		lists = append(lists, st.proposals[p])
	}
	txs := v.base.Merge(lists)
	// A superblock has no single proposer; every assembling node must
	// produce a bit-identical block, so the field is set deterministically
	// to the first included proposer (or the round's weak coordinator for
	// an empty round).
	proposer := v.coordinator(round, 0)
	if len(include) > 0 {
		proposer = include[0]
	}
	return chain.Block{
		Height:    round,
		Proposer:  proposer,
		Parent:    v.base.TipHash(),
		Txs:       txs,
		DecidedAt: v.ctx.Now(),
	}
}

func (v *validator) onDecide(msg decideMsg) {
	st := v.state(msg.Round)
	if !st.decided {
		st.decided = true
		v.base.SubmitBlock(msg.Block)
	}
	v.advance(msg.Round)
}

// advance moves to the next round after a decision, respecting pacing.
func (v *validator) advance(decided int) {
	if decided < v.round {
		return
	}
	next := decided + 1
	st := v.states[decided]
	delete(v.states, decided-2) // bounded memory
	wait := v.cfg.InterBlock
	if st != nil {
		elapsed := v.ctx.Now() - st.startedAt
		if elapsed+wait < v.cfg.MinRoundInterval {
			wait = v.cfg.MinRoundInterval - elapsed
		}
	}
	v.round = next
	v.ctx.After(wait, func() {
		if v.round == next && !v.state(next).decided {
			v.startRound(next)
		}
	})
}

// repliedIfDecided answers protocol traffic for already-decided rounds with
// the decided block, letting laggards converge; it reports whether the round
// was already decided locally.
func (v *validator) repliedIfDecided(from simnet.NodeID, round int) bool {
	if round >= v.base.Ledger.Height() {
		return false
	}
	if from == v.base.ID {
		return true
	}
	if b, err := v.base.Ledger.Block(round); err == nil {
		v.ctx.Send(from, decideMsg{Round: round, Block: b})
	}
	return true
}

// resendRound re-broadcasts this node's proposal and votes for the current
// round while it stays undecided, so nodes that were down or partitioned
// when the originals went out can still join the quorum.
func (v *validator) resendRound() {
	st, ok := v.states[v.round]
	if !ok || st.decided {
		return
	}
	if v.ctx.Now()-st.startedAt < v.cfg.ResendInterval {
		return
	}
	if txs, ok := st.proposals[v.base.ID]; ok {
		v.base.Broadcast(proposalMsg{Round: v.round, Proposer: v.base.ID, Txs: txs})
	}
	// Resend votes in ascending sub-round order: each send samples the
	// shared latency (and degradation) RNG streams, so iterating the map
	// directly would let Go's randomized map order desync otherwise
	// identical runs whenever a round reaches sub-round 1.
	subs := make([]int, 0, len(st.myVote))
	for sub := range st.myVote {
		subs = append(subs, sub)
	}
	sort.Ints(subs)
	for _, sub := range subs {
		if est := st.myVote[sub]; est != nil {
			v.base.Broadcast(voteMsg{Round: v.round, Sub: sub, Voter: v.base.ID, Est: est, Resend: true})
		}
	}
	// A node that has been stuck for a long time relative to the chain
	// head, or has a gap in its decided-block pipeline, missed decisions
	// entirely; catch up.
	if v.round < v.highestSeen() || v.base.HeadPending() > v.base.Ledger.Height() {
		v.base.StartCatchUp()
	}
}

func (v *validator) highestSeen() int {
	high := v.round
	for r := range v.states {
		if r > high {
			high = r
		}
	}
	return high
}

// Decides reports how many rounds this validator decided first-hand.
func (v *validator) Decides() uint64 { return v.decides }

func sortIDs(ids []simnet.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// estKey renders an estimate as "id,id,...,": the decimal form is part of
// the protocol model, because the tie-break in majorityEst compares keys.
func estKey(est []simnet.NodeID) string {
	b := make([]byte, 0, 64)
	for _, id := range est {
		b = append(strconv.AppendInt(b, int64(id), 10), ',')
	}
	return string(b)
}
