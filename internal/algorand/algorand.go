// Package algorand models the Algorand blockchain (STABL §2): BA* consensus
// with VRF-style cryptographic sortition choosing each round's proposer,
// dynamic round times that shrink while rounds finalize quickly and reset to
// defaults when they do not, and push/pull transaction gossip.
//
// The model reproduces the behaviours STABL measures:
//
//   - Baseline ramp-up: default timing parameters are conservative; as
//     rounds finalize fast the filter timeout shrinks and throughput rises
//     over the first couple of minutes (§4).
//   - With f = t crashes, sortition keeps picking crashed proposers for a
//     fraction of rounds; those rounds time out and reset the dynamic round
//     time, causing periodic latency spikes (§4 "Algorand adapts slowly to
//     sudden failures").
//   - Fast transient recovery: restarted nodes actively rejoin and the
//     large block capacity absorbs the backlog in one sharp peak (§5).
//   - Partition recovery is bounded by gossip-network reconnection timers
//     (§6, ~99 s).
//   - The secure client changes little: the gossip network is fully
//     connected and transaction pools deduplicate (§7).
package algorand

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"stabl/internal/chain"
	"stabl/internal/committee"
	"stabl/internal/metrics"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// Config parameterizes the Algorand model.
type Config struct {
	// DefaultFilterTimeout is the initial (and reset) time a node waits
	// for the round proposal before voting; this is the knob the Dynamic
	// Round Time mechanism adapts.
	DefaultFilterTimeout time.Duration
	// MinFilterTimeout bounds the shrink.
	MinFilterTimeout time.Duration
	// Shrink multiplies the filter timeout after each fast round.
	Shrink float64
	// CertTimeout bounds the vote-collection phase after filtering.
	CertTimeout time.Duration
	// FallbackGrace is the extra wait before soft-voting a lower-ranked
	// proposal when the sortition winner's proposal is missing — the
	// agreement's next vote step.
	FallbackGrace time.Duration
	// ResetRefractory bounds how often a slow round may reset the
	// dynamic round time to its default (the adjustment works over
	// observation windows, not individual rounds).
	ResetRefractory time.Duration
	// MaxBlockTxs caps one proposal; Algorand blocks are large, which is
	// what makes its backlog peak sharp after recovery.
	MaxBlockTxs int
	// ProposerCandidates is how many sortition winners propose each
	// round; the filter step picks the best (lowest-ranked) received.
	ProposerCandidates int
	// PullInterval is the pull-gossip cadence.
	PullInterval time.Duration
	// PullBatch is how many transactions one pull response carries.
	PullBatch int
	// SortitionSeed perturbs the proposer schedule.
	SortitionSeed uint64
	// StakeWeights gives each validator's share of the currency, by
	// validator index (empty = equal stake). Sortition selects proposers
	// proportionally to stake, which is why the paper states a coalition
	// holding 20% of the currency can fork Algorand.
	StakeWeights []float64
	// Base configures the shared validator core.
	Base chain.BaseConfig
	// Conn configures the gossip connection layer.
	Conn simnet.ConnParams
}

// DefaultConfig returns the production-like parameters used by the STABL
// experiments.
func DefaultConfig() Config {
	return Config{
		DefaultFilterTimeout: 4 * time.Second,
		MinFilterTimeout:     1200 * time.Millisecond,
		Shrink:               0.97,
		CertTimeout:          time.Second,
		FallbackGrace:        500 * time.Millisecond,
		ResetRefractory:      200 * time.Second,
		MaxBlockTxs:          5000,
		ProposerCandidates:   2,
		PullInterval:         5 * time.Second,
		PullBatch:            500,
		Base: chain.BaseConfig{
			ExecRate: 5000,
		},
		Conn: simnet.ConnParams{
			HeartbeatInterval: 2 * time.Second,
			IdleTimeout:       20 * time.Second,
			ReconnectBase:     50 * time.Second,
			ReconnectCap:      100 * time.Second,
			Multiplier:        2,
			HandshakeTimeout:  2 * time.Second,
		},
	}
}

// System implements chain.System for Algorand.
type System struct {
	cfg Config

	// Committee mode (core.Config.CommitteeSize): consensus steps run on
	// sortition committees drawn from a shared, memoized schedule instead
	// of the full validator set. The mutex covers campaign/suite workers
	// building experiments off one System value concurrently. The schedule
	// it hands out is shared by every validator of every such run — under
	// SimWorkers by validators in different partitions of one run too — and
	// takes its own lock; extraction is pure, so sharing it couples neither
	// runs nor partitions.
	mu            sync.Mutex //stabl:nodet goroutine-purity -- guards the memoized schedule that concurrent runs, and one run's partitions, share; extraction is pure, so sharing couples nothing
	committeeSize int
	sched         *committee.Schedule
	schedN        int
}

var _ chain.System = (*System)(nil)

// SetCommitteeSize switches the system into sortition-committee mode (zero
// restores full-membership consensus). core.Build wires
// core.Config.CommitteeSize through this before constructing validators.
func (s *System) SetCommitteeSize(size int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.committeeSize != size {
		s.committeeSize = size
		s.sched = nil
	}
}

// schedule returns the shared committee schedule for an n-validator
// deployment, or nil when committee mode is off.
func (s *System) schedule(n int) *committee.Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.committeeSize <= 0 {
		return nil
	}
	if s.sched == nil || s.schedN != n {
		s.sched = committee.NewSchedule(s.stakeTable(n), s.cfg.SortitionSeed, s.committeeSize)
		s.schedN = n
	}
	return s.sched
}

// stakeTable converts the configured stake weights into the committee
// package's integer stake line (equal stakes by default). Weights are
// scaled to parts-per-million so small fractional stakes stay
// representable; every validator keeps at least one unit.
func (s *System) stakeTable(n int) *committee.Table {
	if len(s.cfg.StakeWeights) == 0 {
		return committee.Uniform(n)
	}
	stakes := make([]uint64, n)
	for i := range stakes {
		w := 1.0
		if i < len(s.cfg.StakeWeights) && s.cfg.StakeWeights[i] > 0 {
			w = s.cfg.StakeWeights[i]
		}
		stakes[i] = uint64(w * 1e6)
		if stakes[i] == 0 {
			stakes[i] = 1
		}
	}
	tab, err := committee.NewTable(stakes)
	if err != nil {
		panic(fmt.Sprintf("algorand: stake table: %v", err))
	}
	return tab
}

// NewSystem creates an Algorand system with the given configuration.
func NewSystem(cfg Config) *System { return &System{cfg: cfg} }

// Default creates an Algorand system with DefaultConfig.
func Default() *System { return NewSystem(DefaultConfig()) }

// Name implements chain.System.
func (s *System) Name() string { return "Algorand" }

// Tolerance implements chain.System: t = ceil(n/5) - 1, from the 20%
// coalition bound (§2).
func (s *System) Tolerance(n int) int { return chain.ToleranceFifth(n) }

// ConnParams implements chain.System.
func (s *System) ConnParams() simnet.ConnParams { return s.cfg.Conn }

// NewValidator implements chain.System.
func (s *System) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis *chain.Genesis) chain.Validator {
	v := &validator{
		cfg:  s.cfg,
		base: chain.NewBaseNode(id, peers, mon, s.cfg.Base),
		n:    len(peers),
		t:    chain.ToleranceFifth(len(peers)),
		comm: s.schedule(len(peers)),
	}
	v.quorum = committee.Quorum(v.n, v.t)
	v.base.Ledger.Genesis(genesis)
	return v
}

// Vote stages of one BA* round in this model.
const (
	stageSoft = 1
	stageCert = 2
)

// Wire messages.
type (
	// txGossip is push gossip of a submitted transaction.
	txGossip struct {
		Tx chain.Tx
	}
	// pullReq asks a peer for pool transactions (pull gossip).
	pullReq struct{}
	// pullResp returns a sample of the peer's pool.
	pullResp struct {
		Txs []chain.Tx
	}
	// proposalMsg is the sortition winner's block proposal.
	proposalMsg struct {
		Round    int
		Height   int
		Parent   chain.Hash
		Proposer simnet.NodeID
		Txs      []chain.Tx
	}
	// voteMsg carries a committee vote for one candidate's proposal.
	voteMsg struct {
		Round    int
		Stage    int
		Voter    simnet.NodeID
		Proposer simnet.NodeID
	}
	// nextMsg votes to abandon a round whose proposer stayed silent.
	nextMsg struct {
		Round int
		Voter simnet.NodeID
	}
)

// Committee steps of one BA* round (committee mode). The proposer step
// shares the vote stages' numbering space: stageSoft/stageCert map onto
// their step values directly.
const (
	stepProposer = 0
	stepNext     = 3
)

// proposalKey names a buffered proposal.
type proposalKey struct {
	round    int
	proposer simnet.NodeID
}

type validator struct {
	cfg    Config
	base   *chain.BaseNode
	n      int
	t      int
	quorum int
	// comm, when non-nil, runs the consensus steps on sortition
	// committees: propose/vote/next only when seated, votes counted only
	// from seated members, quorums sized to the committee. All validators
	// of a run share the schedule; extraction is pure, so every node sees
	// identical committees without exchanging membership.
	comm *committee.Schedule
	state
}

// state is what a validator mutates after construction, and its checkpoint.
// Queued round closures capture only round numbers and the validator
// pointer, and proposal messages are immutable once buffered.
type state struct {
	durable
	round      int
	filterTO   time.Duration
	roundTimer sim.Timer
	proposals  map[proposalKey]*proposalMsg
	// votes holds each round's soft and cert votes, valued by the proposer
	// they endorse, and its next votes, which name no proposer.
	votes     chain.Tally[simnet.NodeID]
	certSent  int                   // the last round this node's cert step ran
	evidence  chain.Tally[struct{}] // later-round senders, for jumps
	puller    *sim.Ticker
	lastReset time.Duration
	everReset bool
	rngPull   interface{ Intn(int) int }
	// memo is the committee of (memoRound, memoStep), the last one asked
	// for (see committeeAt).
	memoRound int
	memoStep  int
	memo      *committee.Committee
}

// durable is the part of state that survives a restart.
type durable struct{ resets uint64 }

// Start implements simnet.Handler.
func (v *validator) Start(ctx *simnet.Context) {
	v.base.Reset(ctx)
	var seats func(round, step int) *committee.Committee
	if v.comm != nil {
		seats = v.committeeAt
	}
	v.state = state{
		durable:   v.durable,
		filterTO:  v.cfg.DefaultFilterTimeout,
		proposals: make(map[proposalKey]*proposalMsg),
		votes:     chain.NewTally[simnet.NodeID](v.n, v.quorum, seats),
		certSent:  -1,
		evidence:  chain.NewTally[struct{}](v.n, 0, nil),
		rngPull:   ctx.RNG("algorand.pull"),
	}
	v.base.OnLocalSubmit = v.pushGossip
	v.puller = ctx.Every(v.cfg.PullInterval, v.pull)
	if v.base.Ledger.Height() > 0 {
		// Active recovery: restarted participation nodes immediately
		// fetch what they missed and rejoin the agreement.
		v.base.StartCatchUp()
	}
	v.enterRound(0)
}

// Stop implements simnet.Handler.
func (v *validator) Stop() {
	v.roundTimer.Stop()
	v.puller.Stop()
}

// Base exposes the validator core.
func (v *validator) Base() *chain.BaseNode { return v.base }

// FilterTimeout exposes the current dynamic round time (for tests).
func (v *validator) FilterTimeout() time.Duration { return v.filterTO }

// Resets counts dynamic-round-time resets (slow rounds).
func (v *validator) Resets() uint64 { return v.resets }

// Candidates returns the round's sortition ranking: every node computes a
// deterministic pseudo-random priority key, weighted by its stake (the
// exponential-key method: key = -ln(u)/stake), and the lowest keys win.
// Every node computes the identical ranking, crashed nodes included —
// exactly why crashed proposers keep being selected (§4).
func (v *validator) Candidates(round int) []simnet.NodeID {
	if v.comm != nil {
		seats := v.seats(round)
		out := make([]simnet.NodeID, len(seats))
		for i, m := range seats {
			out[i] = v.base.Peers[m]
		}
		return out
	}
	k := min(max(v.cfg.ProposerCandidates, 1), v.n)
	type ranked struct {
		id  simnet.NodeID
		key float64
	}
	keys := make([]ranked, v.n)
	for i, id := range v.base.Peers {
		keys[i] = ranked{id: id, key: v.sortitionKey(round, i)}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	out := make([]simnet.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].id
	}
	return out
}

// stake returns validator index i's stake weight (1 by default).
func (v *validator) stake(i int) float64 {
	if i < len(v.cfg.StakeWeights) && v.cfg.StakeWeights[i] > 0 {
		return v.cfg.StakeWeights[i]
	}
	return 1
}

// sortitionKey derives the VRF-style priority of validator index i for a
// round: uniform in (0,1) from a cryptographic hash (the stand-in for the
// VRF output), then exponentially weighted so that the win probability is
// proportional to stake.
func (v *validator) sortitionKey(round, i int) float64 {
	var buf [24]byte
	seed := v.cfg.SortitionSeed
	for j := 0; j < 8; j++ {
		buf[j] = byte(round >> (8 * j))
		buf[8+j] = byte(seed >> (8 * j))
		buf[16+j] = byte(i >> (8 * j))
	}
	sum := sha256.Sum256(buf[:])
	raw := binary.LittleEndian.Uint64(sum[:8])
	u := (float64(raw) + 1) / (float64(^uint64(0)) + 2) // (0,1)
	return -math.Log(u) / v.stake(i)
}

// seats returns the committee-mode proposer candidates as validator
// indices, read in place: the first k seats of the round's proposer
// committee — extraction order is the sortition priority, so no O(n log n)
// ranking of the full set.
func (v *validator) seats(round int) []int {
	ord := v.committeeAt(round, stepProposer).Order()
	return ord[:min(max(v.cfg.ProposerCandidates, 1), v.n, len(ord))]
}

// Proposer returns the best-ranked sortition winner of a round.
func (v *validator) Proposer(round int) simnet.NodeID {
	if v.comm != nil {
		return v.base.Peers[v.seats(round)[0]]
	}
	return v.Candidates(round)[0]
}

// rank returns the candidate index of a node for a round, or -1.
func (v *validator) rank(round int, id simnet.NodeID) int {
	if v.comm != nil {
		for i, m := range v.seats(round) {
			if v.base.Peers[m] == id {
				return i
			}
		}
		return -1
	}
	for i, c := range v.Candidates(round) {
		if c == id {
			return i
		}
	}
	return -1
}

// committeeAt returns the (round, step) committee (committee mode), and is
// the vote tally's seats. Validator ids double as stake-table member indices
// (the deployment assigns validators ids 0..n-1, matching their position in
// Peers), so membership checks are direct bitset lookups. A validator asks
// for one committee many times in a row (every vote of a step), so it keeps
// the last one and asks the shared Schedule, behind its lock, only on a miss.
// Committees are immutable and extraction is pure, so a hit returns a
// committee identical to the Schedule's, even after the Schedule evicted it.
func (v *validator) committeeAt(round, step int) *committee.Committee {
	if v.memo == nil || v.memoRound != round || v.memoStep != step {
		v.memo, v.memoRound, v.memoStep = v.comm.Committee(uint64(round), uint8(step)), round, step
	}
	return v.memo
}

// evidenceThreshold is how many distinct later-round senders prove the
// local node fell behind: t+1 over the full membership, a third of a
// committee plus one in committee mode.
func (v *validator) evidenceThreshold(round int) int {
	if v.comm == nil {
		return v.t + 1
	}
	return v.committeeAt(round, stageSoft).Evidence()
}

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
		v.base.Pool.Add(msg.Tx)
	case pullReq:
		v.base.Ctx().Send(from, pullResp{Txs: v.base.Pool.Peek(v.cfg.PullBatch)})
	case pullResp:
		for _, tx := range msg.Txs {
			v.base.Pool.Add(tx)
		}
	case proposalMsg:
		v.noteEvidence(msg.Round, msg.Proposer)
		v.onProposal(msg)
	case voteMsg:
		v.noteEvidence(msg.Round, msg.Voter)
		v.onVote(msg)
	case nextMsg:
		v.noteEvidence(msg.Round, msg.Voter)
		v.onNext(msg)
	}
}

func (v *validator) pushGossip(tx chain.Tx) {
	v.base.Broadcast(txGossip{Tx: tx})
}

func (v *validator) pull() {
	if v.base.Gossips() {
		// Overlay mode: pull only from overlay neighbors (they never
		// include the local node). Exactly one rngPull draw either way.
		ns := v.base.Neighbors()
		if len(ns) == 0 {
			return
		}
		v.base.Ctx().Send(ns[v.rngPull.Intn(len(ns))], pullReq{})
		return
	}
	peer := v.base.Peers[v.rngPull.Intn(len(v.base.Peers))]
	if peer == v.base.ID {
		return
	}
	v.base.Ctx().Send(peer, pullReq{})
}

// noteEvidence jumps forward when t+1 distinct nodes demonstrably work on a
// later round.
func (v *validator) noteEvidence(round int, from simnet.NodeID) {
	if round <= v.round {
		return
	}
	v.evidence.Add(round, 0, from, struct{}{})
	if v.evidence.Voters(round, 0) >= v.evidenceThreshold(round) {
		v.advance(round, false)
	}
}

func (v *validator) enterRound(round int) {
	v.round = round
	v.roundTimer.Stop()
	v.base.Consensus(metrics.EventRoundStart, round, v.Proposer(round), "")
	if v.rank(round, v.base.ID) >= 0 {
		v.propose(round)
	}
	// The filter step: collect proposals for one dynamic round time
	// before soft-voting; this is the adaptive delay of Dynamic Round
	// Time.
	v.roundTimer = v.base.Ctx().After(v.filterTO, func() { v.onFilterStep(round) })
	// Replay quorums that assembled before we entered this round (e.g.
	// right after a jump).
	if v.votes.Voters(round, stepNext) >= v.votes.Threshold(round, stepNext) {
		v.advance(round+1, true)
	}
}

func (v *validator) propose(round int) {
	msg := proposalMsg{
		Round:    round,
		Height:   v.base.ChainTip(),
		Parent:   v.base.TipHash(),
		Proposer: v.base.ID,
		Txs:      v.base.ProposalTxs(v.cfg.MaxBlockTxs),
	}
	v.base.Broadcast(msg)
	v.onProposal(msg)
}

func (v *validator) onProposal(msg proposalMsg) {
	if msg.Round < v.round || v.rank(msg.Round, msg.Proposer) < 0 {
		return
	}
	key := proposalKey{msg.Round, msg.Proposer}
	if _, dup := v.proposals[key]; dup {
		return
	}
	v.proposals[key] = &msg
}

// bestProposal returns the lowest-ranked received proposal of a round.
func (v *validator) bestProposal(round int) *proposalMsg {
	var best *proposalMsg
	bestRank := 1 << 30
	for k, p := range v.proposals {
		if k.round != round {
			continue
		}
		if r := v.rank(round, p.Proposer); r < bestRank {
			bestRank = r
			best = p
		}
	}
	return best
}

func (v *validator) castVote(round, stage int, proposer simnet.NodeID) {
	msg := voteMsg{Round: round, Stage: stage, Voter: v.base.ID, Proposer: proposer}
	v.base.Broadcast(msg)
	v.onVote(msg)
}

func (v *validator) onVote(msg voteMsg) {
	// A commit enters the next round at once, so rounds below the current
	// one are closed.
	if msg.Round < v.round {
		return
	}
	// Only seated members vote, so a vote the tally refuses is a repeat;
	// the checks below run for it as for a first vote.
	v.votes.Add(msg.Round, msg.Stage, msg.Voter, msg.Proposer)
	if msg.Round != v.round {
		return
	}
	votes := v.votes.Count(msg.Round, msg.Stage, msg.Proposer)
	if msg.Stage == stageSoft && votes >= v.votes.Threshold(msg.Round, stageSoft) && v.certSent != msg.Round {
		v.certSent = msg.Round
		if v.votes.Seated(msg.Round, stageCert, v.base.ID) {
			v.castVote(msg.Round, stageCert, msg.Proposer)
		}
	}
	if msg.Stage == stageCert && votes >= v.votes.Threshold(msg.Round, stageCert) {
		v.commitRound(msg.Round, msg.Proposer)
	}
}

func (v *validator) commitRound(round int, proposer simnet.NodeID) {
	prop := v.proposals[proposalKey{round, proposer}]
	if prop == nil {
		// Certified without content (e.g. right after a jump); block
		// sync will deliver the block.
		return
	}
	v.base.Consensus(metrics.EventCommit, round, proposer, "")
	v.base.SubmitBlock(chain.Block{
		Height:    prop.Height,
		Proposer:  prop.Proposer,
		Parent:    prop.Parent,
		Txs:       prop.Txs,
		DecidedAt: v.base.Ctx().Now(),
	})
	// Fast round: the dynamic round time shrinks.
	v.filterTO = time.Duration(float64(v.filterTO) * v.cfg.Shrink)
	if v.filterTO < v.cfg.MinFilterTimeout {
		v.filterTO = v.cfg.MinFilterTimeout
	}
	v.advance(round+1, false)
}

// onFilterStep closes the proposal-collection phase: soft-vote the proposal
// if one arrived, otherwise signal the round as failed.
func (v *validator) onFilterStep(round int) {
	if round != v.round {
		return
	}
	if prop := v.bestProposal(round); prop != nil {
		if prop.Proposer != v.Proposer(round) {
			// The sortition winner's proposal is missing: the round
			// falls back to a lower rank through an extra vote step,
			// and Dynamic Round Time marks the round slow (§4).
			v.slowRound()
			v.base.Consensus(metrics.EventLeaderChange, round, prop.Proposer, "sortition winner silent, falling back")
			v.roundTimer = v.base.Ctx().After(v.cfg.FallbackGrace, func() {
				if round != v.round {
					return
				}
				fallback := v.bestProposal(round)
				if fallback == nil {
					v.onRoundStuck(round)
					return
				}
				if v.votes.Seated(round, stageSoft, v.base.ID) {
					v.castVote(round, stageSoft, fallback.Proposer)
				}
				v.roundTimer = v.base.Ctx().After(v.cfg.CertTimeout, func() { v.onRoundStuck(round) })
			})
			return
		}
		if v.votes.Seated(round, stageSoft, v.base.ID) {
			v.castVote(round, stageSoft, prop.Proposer)
		}
		v.roundTimer = v.base.Ctx().After(v.cfg.CertTimeout, func() { v.onRoundStuck(round) })
		return
	}
	v.onRoundStuck(round)
}

// slowRound resets the adaptive filter timeout to its conservative default,
// at most once per refractory window (§4: "there are periods when the
// decreased timing parameters are reset to their default values").
func (v *validator) slowRound() {
	now := v.base.Ctx().Now()
	if v.everReset && now-v.lastReset < v.cfg.ResetRefractory {
		return
	}
	v.everReset = true
	v.lastReset = now
	v.filterTO = v.cfg.DefaultFilterTimeout
	v.resets++
}

// onRoundStuck fires when the round did not finalize within the dynamic
// round time: vote to move to the next round, re-arming so the signal keeps
// going out until the network moves (or a lost quorum returns).
func (v *validator) onRoundStuck(round int) {
	if round != v.round {
		return
	}
	v.base.Consensus(metrics.EventTimeout, round, v.Proposer(round), "round stuck")
	// The timer re-arms between the broadcast and the local vote: onNext
	// may advance the round, and the round-entry timer it installs must
	// survive this handler.
	if v.votes.Seated(round, stepNext, v.base.ID) {
		msg := nextMsg{Round: round, Voter: v.base.ID}
		v.base.Broadcast(msg)
		v.roundTimer = v.base.Ctx().After(v.filterTO+v.cfg.CertTimeout, func() { v.onRoundStuck(round) })
		v.onNext(msg)
		return
	}
	v.roundTimer = v.base.Ctx().After(v.filterTO+v.cfg.CertTimeout, func() { v.onRoundStuck(round) })
}

func (v *validator) onNext(msg nextMsg) {
	if msg.Round < v.round {
		return
	}
	v.votes.Add(msg.Round, stepNext, msg.Voter, 0)
	if msg.Round == v.round && v.votes.Voters(msg.Round, stepNext) >= v.votes.Threshold(msg.Round, stepNext) {
		v.advance(msg.Round+1, true)
	}
}

// advance enters a later round; slow == true means the round failed and the
// dynamic round time backs off toward its conservative default (§4).
func (v *validator) advance(round int, slow bool) {
	if round <= v.round {
		return
	}
	if slow {
		v.slowRound()
	}
	v.votes.Prune(round)
	v.evidence.Prune(round + 1)
	for k := range v.proposals {
		if k.round < round-1 {
			delete(v.proposals, k)
		}
	}
	v.enterRound(round)
	if v.base.HeadPending() > v.base.Ledger.Height() {
		v.base.StartCatchUp()
	}
}
