// Package avalanche models the Avalanche C-Chain (STABL §2): Snowball
// repeated-sampling consensus over proposer-rotated blocks, transaction
// gossip drawn from an unordered map, and — crucially for STABL's findings —
// the InboundMsgThrottler with its CPU-quota throttler and message-buffer
// throttler.
//
// The model reproduces the behaviours STABL measures:
//
//   - With f = t crashes, samples keep including dead peers; those query
//     rounds stretch to the query timeout and occasionally break the
//     confidence streak, destabilizing block production (§4).
//   - With f = t+1 transient failures or a partition, consensus stalls, the
//     client backlog and its 30-second retries inflate gossip and regossip
//     traffic beyond the CPU quota, and after the nodes return the
//     throttlers keep queueing consensus messages behind the flood: blocks
//     are never accepted again (§5, §6 — "Avalanche lack of liveness").
//   - The secure client helps: transactions submitted to t+1 nodes are
//     directly available to more proposers, skipping the unordered gossip
//     delay, and the paper's resource bump absorbs the redundant load (§7).
package avalanche

import (
	"math"
	"sort"
	"time"

	"stabl/internal/chain"
	"stabl/internal/committee"
	"stabl/internal/metrics"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// Config parameterizes the Avalanche model.
type Config struct {
	// K is the sample size, Alpha the quorum within a sample, Beta the
	// consecutive-success threshold (Snowball parameters).
	K, Alpha, Beta int
	// QueryInterval paces sampling rounds; QueryTimeout bounds one round.
	QueryInterval time.Duration
	QueryTimeout  time.Duration
	// BlockInterval is the proposer rotation period (2 s blocks).
	BlockInterval time.Duration
	// MaxBlockTxs is the gas-derived block capacity (15M gas / 21k per
	// transfer = 714).
	MaxBlockTxs int
	// GossipInterval and GossipBatch shape the txpool announce loop; the
	// batch is drawn in map-iteration (shuffled) order, so nonces can be
	// gossiped out of order.
	GossipInterval time.Duration
	GossipBatch    int
	// GossipFanout is how many random peers receive each announcement.
	// Partial coverage means a transaction is often absent from the slot
	// proposer's pool until a relay or regossip wave fills the gap — the
	// delay the secure client's redundant submissions short-circuit (§7).
	GossipFanout int
	// RelayFanout is how many random peers a first-time recipient
	// forwards an announcement to (one relay hop).
	RelayFanout int
	// RegossipInterval and RegossipBatch re-announce old pool entries.
	RegossipInterval time.Duration
	RegossipBatch    int
	// Throttling enables the inbound message throttler (ablation knob).
	Throttling bool
	// CPURate and CPUBurst are the CPU-quota throttler's token bucket in
	// message-cost units per second.
	CPURate  float64
	CPUBurst float64
	// MaxBuffered is the buffer throttler: inbound messages beyond this
	// queue depth are dropped.
	MaxBuffered int
	// Message costs in CPU units.
	CostTxGossip float64
	CostSubmit   float64
	CostQuery    float64
	CostResponse float64
	CostProposal float64
	// ProposerSeed perturbs proposer rotation.
	ProposerSeed uint64
	// StakeWeights gives each validator's share of stake by validator
	// index (empty = equal). Snowball samples validators proportionally
	// to stake, the paper's "80% of stake must be online" premise.
	StakeWeights []float64
	// Base configures the shared validator core.
	Base chain.BaseConfig
	// Conn configures the peer connection layer.
	Conn simnet.ConnParams
}

// DefaultConfig returns the production-like parameters used by the STABL
// experiments.
func DefaultConfig() Config {
	return Config{
		K:                6,
		Alpha:            5,
		Beta:             6,
		QueryInterval:    200 * time.Millisecond,
		QueryTimeout:     500 * time.Millisecond,
		BlockInterval:    2 * time.Second,
		MaxBlockTxs:      714,
		GossipInterval:   500 * time.Millisecond,
		GossipBatch:      400,
		GossipFanout:     4,
		RelayFanout:      2,
		RegossipInterval: 5 * time.Second,
		RegossipBatch:    250,
		Throttling:       true,
		CPURate:          140,
		CPUBurst:         280,
		MaxBuffered:      3000,
		CostTxGossip:     0.12,
		CostSubmit:       1,
		CostQuery:        0.3,
		CostResponse:     0.3,
		CostProposal:     2,
		Base: chain.BaseConfig{
			ExecRate: 2000,
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

// System implements chain.System for Avalanche.
type System struct {
	cfg Config
}

var _ chain.System = (*System)(nil)

// NewSystem creates an Avalanche system with the given configuration.
func NewSystem(cfg Config) *System { return &System{cfg: cfg} }

// Default creates an Avalanche system with DefaultConfig.
func Default() *System { return NewSystem(DefaultConfig()) }

// Name implements chain.System.
func (s *System) Name() string { return "Avalanche" }

// Tolerance implements chain.System: t = ceil(n/5) - 1 (80% of stake must be
// online, §2).
func (s *System) Tolerance(n int) int { return chain.ToleranceFifth(n) }

// ConnParams implements chain.System.
func (s *System) ConnParams() simnet.ConnParams { return s.cfg.Conn }

// WithResources implements the harness resource bump used by the
// secure-client experiment: bigger VMs mean a larger CPU quota.
func (s *System) WithResources(scale float64) chain.System {
	cfg := s.cfg
	cfg.CPURate *= scale
	cfg.CPUBurst *= scale
	cfg.Base.ExecRate *= scale
	return NewSystem(cfg)
}

// announcement is a queued txpool announcement with its relay hop count.
type announcement struct {
	tx  chain.Tx
	hop int
}

// Wire messages.
type (
	// txGossip announces a pool transaction. Hop counts relay stages.
	txGossip struct {
		Tx  chain.Tx
		Hop int
	}
	// proposalMsg is the slot proposer's block.
	proposalMsg struct {
		Slot     int
		Height   int
		Parent   chain.Hash
		Proposer simnet.NodeID
		Txs      []chain.Tx
	}
	// queryMsg samples a peer's preference for a height.
	queryMsg struct {
		Height int
		Slot   int // querier's preferred block
		Seq    uint64
	}
	// responseMsg answers a query. Decided carries the committed block
	// when the responder's chain has already passed that height.
	responseMsg struct {
		Height   int
		PrefSlot int
		Seq      uint64
		Decided  *chain.Block
	}
)

// instance is the Snowball state for one height.
type instance struct {
	height     int
	pref       *proposalMsg
	confidence int
	roundSeq   uint64
	roundOpen  bool
	positives  int
	flips      map[int]int // competing slot -> count in current round
	responses  int
	accepted   bool
}

type validator struct {
	cfg    Config
	base   *chain.BaseNode
	n      int
	t      int
	quorum int
	state
}

// state is what a validator mutates after construction, and its checkpoint.
// The throttler bucket and the Snowball instance are identity-preserved (the
// query-timeout closure compares its captured pointer against v.inst), so a
// checkpoint carries their contents beside the pointers (see snapshot.go).
// Proposal messages are immutable once buffered.
type state struct {
	ctx       *simnet.Context
	slotTick  *sim.Ticker
	queryTick *sim.Ticker
	gossTick  *sim.Ticker
	regosTick *sim.Ticker

	cpu      *simnet.TokenBucket
	buffered int
	dropped  uint64

	inst      *instance
	proposals map[int]*proposalMsg // height -> buffered proposal
	announceQ []announcement
	rng       interface {
		Intn(int) int
		Shuffle(int, func(int, int))
	}
	resets uint64
}

var _ simnet.Handler = (*validator)(nil)

// NewValidator implements chain.System.
func (s *System) NewValidator(id simnet.NodeID, peers []simnet.NodeID, mon *chain.Monitor, genesis []chain.GenesisAccount) simnet.Handler {
	v := &validator{
		cfg:  s.cfg,
		base: chain.NewBaseNode(id, peers, mon, s.cfg.Base),
		n:    len(peers),
		t:    chain.ToleranceFifth(len(peers)),
	}
	v.quorum = committee.Quorum(v.n, v.t)
	v.base.Ledger.Genesis(genesis)
	return v
}

// Start implements simnet.Handler.
func (v *validator) Start(ctx *simnet.Context) {
	v.ctx = ctx
	v.base.Reset(ctx)
	v.inst = nil
	v.proposals = make(map[int]*proposalMsg)
	v.announceQ = nil
	v.buffered = 0
	v.cpu = simnet.NewTokenBucket(v.cfg.CPURate, v.cfg.CPUBurst)
	v.rng = ctx.RNG("avalanche")
	v.base.OnLocalSubmit = func(tx chain.Tx) {
		v.announceQ = append(v.announceQ, announcement{tx: tx})
	}
	v.slotTick = ctx.Every(v.cfg.BlockInterval, v.onSlot)
	v.queryTick = ctx.Every(v.cfg.QueryInterval, v.onQueryTick)
	v.gossTick = ctx.Every(v.cfg.GossipInterval, v.onGossip)
	v.regosTick = ctx.Every(v.cfg.RegossipInterval, v.onRegossip)
	if v.base.Ledger.Height() > 0 {
		v.base.StartCatchUp()
	}
}

// Stop implements simnet.Handler.
func (v *validator) Stop() {
	for _, tk := range []*sim.Ticker{v.slotTick, v.queryTick, v.gossTick, v.regosTick} {
		if tk != nil {
			tk.Stop()
		}
	}
}

// Base exposes the validator core.
func (v *validator) Base() *chain.BaseNode { return v.base }

// DroppedInbound reports how many messages the buffer throttler rejected.
func (v *validator) DroppedInbound() uint64 { return v.dropped }

// ConfidenceResets reports how often the Snowball streak was broken.
func (v *validator) ConfidenceResets() uint64 { return v.resets }

// Deliver implements simnet.Handler. Protocol and client traffic runs
// through the inbound throttler; block-sync replies bypass it like the
// dedicated handler threads they use in AvalancheGo.
func (v *validator) Deliver(from simnet.NodeID, payload any) {
	payload, ok := v.base.Unwrap(from, payload)
	if !ok {
		return
	}
	if v.base.HandleSync(from, payload) {
		return
	}
	v.inbound(v.cost(payload), from, payload)
}

// cost is the CPU-quota charge of one inbound message.
func (v *validator) cost(payload any) float64 {
	switch payload.(type) {
	case txGossip:
		return v.cfg.CostTxGossip
	case proposalMsg:
		return v.cfg.CostProposal
	case queryMsg:
		return v.cfg.CostQuery
	case responseMsg:
		return v.cfg.CostResponse
	default: // client traffic
		return v.cfg.CostSubmit
	}
}

// inbound runs one message through the CPU-quota and buffer throttlers. Only
// a message the quota delays costs a closure; it captures the payload as it
// arrived, already boxed.
func (v *validator) inbound(cost float64, from simnet.NodeID, payload any) {
	if !v.cfg.Throttling {
		v.handle(from, payload)
		return
	}
	now := v.ctx.Now()
	readyAt := v.cpu.Reserve(now, cost)
	if readyAt == now {
		v.handle(from, payload)
		return
	}
	if v.buffered >= v.cfg.MaxBuffered {
		v.dropped++
		return
	}
	v.buffered++
	v.ctx.After(readyAt-now, func() {
		v.buffered--
		v.handle(from, payload)
	})
}

// handle processes one admitted message.
func (v *validator) handle(from simnet.NodeID, payload any) {
	switch msg := payload.(type) {
	case chain.SubmitTx:
		retried := v.base.Pool.Contains(msg.Tx.ID)
		v.base.HandleClient(from, payload)
		if retried {
			// A client retry: the SDK re-broadcasts into the
			// txpool, which re-triggers gossip — the load
			// feedback loop behind the metastable collapse.
			v.announceQ = append(v.announceQ, announcement{tx: msg.Tx})
		}
	case txGossip:
		v.onTxGossip(msg)
	case proposalMsg:
		v.onProposal(msg)
	case queryMsg:
		v.onQuery(from, msg)
	case responseMsg:
		v.onResponse(msg)
	default:
		v.base.HandleClient(from, payload)
	}
}

// Gossip ------------------------------------------------------------------

func (v *validator) onTxGossip(msg txGossip) {
	if v.base.Pool.Add(msg.Tx) && msg.Hop < 2 {
		// First sight: relay once so coverage approaches the full
		// validator set within a couple of gossip ticks.
		v.announceQ = append(v.announceQ, announcement{tx: msg.Tx, hop: msg.Hop + 1})
	}
}

// onGossip drains the announce queue in shuffled (map-iteration) order; the
// shuffle is what delays low nonces behind high ones.
func (v *validator) onGossip() {
	if len(v.announceQ) == 0 {
		return
	}
	v.rng.Shuffle(len(v.announceQ), func(i, j int) {
		v.announceQ[i], v.announceQ[j] = v.announceQ[j], v.announceQ[i]
	})
	n := v.cfg.GossipBatch
	if n > len(v.announceQ) {
		n = len(v.announceQ)
	}
	batch := v.announceQ[:n]
	v.announceQ = v.announceQ[n:]
	for _, a := range batch {
		if _, committed := v.base.Ledger.Committed(a.tx.ID); committed {
			continue
		}
		v.gossipTo(a.tx, a.hop)
	}
}

// gossipTo announces one transaction to a random subset of peers: the
// origin uses GossipFanout, relays use the narrower RelayFanout.
func (v *validator) gossipTo(tx chain.Tx, hop int) {
	fanout := v.cfg.GossipFanout
	if hop > 0 {
		fanout = v.cfg.RelayFanout
	}
	var buf [sampleBuf]simnet.NodeID
	v.ctx.Broadcast(v.samplePeersN(fanout, buf[:0]), txGossip{Tx: tx, Hop: hop})
}

// onRegossip re-announces a random sample of old pool entries; under a large
// backlog this is a major inbound load on every peer.
func (v *validator) onRegossip() {
	pool := v.base.Pool.Pending()
	if len(pool) == 0 {
		return
	}
	n := v.cfg.RegossipBatch
	if n > len(pool) {
		n = len(pool)
	}
	for i := 0; i < n; i++ {
		tx := pool[v.rng.Intn(len(pool))]
		if v.base.InPipeline(tx.ID) {
			continue
		}
		v.gossipTo(tx, 0)
	}
}

// Block production ---------------------------------------------------------

func (v *validator) slot() int { return int(v.ctx.Now() / v.cfg.BlockInterval) }

// Proposer returns the rotation winner for a slot.
func (v *validator) Proposer(slot int) simnet.NodeID {
	x := uint64(slot)*0x9E3779B97F4A7C15 + v.cfg.ProposerSeed
	x ^= x >> 29
	return v.base.Peers[x%uint64(v.n)]
}

func (v *validator) onSlot() {
	slot := v.slot()
	if v.Proposer(slot) != v.base.ID {
		return
	}
	// Propose only on a clean tip: the previous block must be accepted
	// locally, otherwise conflicting same-height proposals would race.
	if v.inst != nil && !v.inst.accepted {
		return
	}
	txs := v.nonceOrderedTxs(v.cfg.MaxBlockTxs)
	msg := proposalMsg{
		Slot:     slot,
		Height:   v.base.ChainTip(),
		Parent:   v.base.TipHash(),
		Proposer: v.base.ID,
		Txs:      txs,
	}
	v.base.Broadcast(msg)
	v.onProposal(msg)
}

// nonceOrderedTxs builds a block respecting per-account nonce order: a
// transaction enters only if every lower nonce of its account is committed,
// in the pipeline, or included earlier in this block. It selects into a
// transient scratch and returns a copy of exactly the selected length, since
// the block's list outlives the event in every ledger that commits it.
func (v *validator) nonceOrderedTxs(max int) []chain.Tx {
	pool := v.base.Pool.Pending()
	byAcct := make(map[chain.Address][]chain.Tx)
	for _, tx := range pool {
		byAcct[tx.From] = append(byAcct[tx.From], tx)
	}
	accts := make([]chain.Address, 0, len(byAcct))
	for a := range byAcct {
		accts = append(accts, a)
		sort.Slice(byAcct[a], func(i, j int) bool { return byAcct[a][i].Nonce < byAcct[a][j].Nonce })
	}
	sort.Slice(accts, func(i, j int) bool { return accts[i] < accts[j] })
	picked := make([]chain.Tx, 0, min(max, len(pool)))
fill:
	for _, a := range accts {
		expected := v.base.Ledger.NextNonce(a)
		for _, tx := range byAcct[a] {
			if len(picked) >= max {
				break fill
			}
			if tx.Nonce < expected {
				continue
			}
			if tx.Nonce > expected {
				break // nonce gap: the lower nonce has not arrived yet
			}
			expected++
			if v.base.InPipeline(tx.ID) {
				continue
			}
			picked = append(picked, tx)
		}
	}
	out := make([]chain.Tx, len(picked))
	copy(out, picked)
	return out
}

func (v *validator) onProposal(msg proposalMsg) {
	tip := v.base.ChainTip()
	if msg.Height < tip {
		return
	}
	if cur, dup := v.proposals[msg.Height]; dup && cur.Slot <= msg.Slot {
		return
	}
	m := msg
	v.proposals[msg.Height] = &m
	if msg.Height == tip {
		v.startInstance(&m)
	}
}

func (v *validator) startInstance(prop *proposalMsg) {
	if v.inst != nil && v.inst.height == prop.Height && !v.inst.accepted {
		return // already running on some preference for this height
	}
	v.inst = &instance{height: prop.Height, pref: prop}
	v.base.Consensus(metrics.EventRoundStart, prop.Height, prop.Proposer, "")
}

// Snowball sampling --------------------------------------------------------

func (v *validator) onQueryTick() {
	inst := v.inst
	if inst == nil || inst.accepted || inst.roundOpen {
		return
	}
	inst.roundSeq++
	inst.roundOpen = true
	inst.positives = 0
	inst.responses = 0
	inst.flips = make(map[int]int)
	var buf [sampleBuf]simnet.NodeID
	v.ctx.Broadcast(v.samplePeersN(v.cfg.K, buf[:0]),
		queryMsg{Height: inst.height, Slot: inst.pref.Slot, Seq: inst.roundSeq})
	seq := inst.roundSeq
	v.ctx.After(v.cfg.QueryTimeout, func() { v.closeRound(inst, seq) })
}

// sampleBuf is the stack room callers give samplePeersN for a sample; a
// larger K or fanout grows the buffer on the heap.
const sampleBuf = 8

// samplePeersN appends a stake-weighted sample of k peers to buf and returns
// it; callers hand the result to ctx.Broadcast, one flight per sample.
func (v *validator) samplePeersN(k int, buf []simnet.NodeID) []simnet.NodeID {
	// Overlay mode confines sampling (queries and tx gossip alike) to the
	// node's overlay neighborhood, so all validator traffic stays on
	// overlay edges. Validator ids double as stake indices (the deployment
	// assigns ids 0..n-1 matching Peers positions).
	candidates := v.base.Peers
	if v.base.Gossips() {
		candidates = v.base.Neighbors()
	}
	// Weighted sampling without replacement via exponential keys: key =
	// -ln(u)/stake for u = 1 - r/2^30 and a 30-bit draw r per candidate; the
	// k smallest keys form the sample, with inclusion probability
	// proportional to stake. Under equal stake the key is strictly
	// increasing in r, so r itself serves and no logarithm is taken. Only
	// the k smallest are kept, each inserted after the equal keys before
	// it: the order a stable sort of every key gives.
	var room [sampleBuf]keyed
	top := room[:0]
	weighted := len(v.cfg.StakeWeights) > 0
	for _, p := range candidates {
		if p == v.base.ID {
			continue
		}
		r := v.rng.Intn(1 << 30)
		key := float64(r)
		if weighted {
			key = -math.Log(1-float64(r)/(1<<30)) / v.stake(int(p))
		}
		i := len(top)
		for i > 0 && top[i-1].key > key {
			i--
		}
		if i >= k {
			continue
		}
		if len(top) < k {
			top = append(top, keyed{})
		}
		copy(top[i+1:], top[i:len(top)-1])
		top[i] = keyed{id: p, key: key}
	}
	for _, o := range top {
		buf = append(buf, o.id)
	}
	return buf
}

// keyed is a sample candidate and its exponential key.
type keyed struct {
	id  simnet.NodeID
	key float64
}

// stake returns validator index i's stake weight (1 by default).
func (v *validator) stake(i int) float64 {
	if i < len(v.cfg.StakeWeights) && v.cfg.StakeWeights[i] > 0 {
		return v.cfg.StakeWeights[i]
	}
	return 1
}

func (v *validator) onQuery(from simnet.NodeID, msg queryMsg) {
	resp := responseMsg{Height: msg.Height, Seq: msg.Seq, PrefSlot: -1}
	if msg.Height < v.base.Ledger.Height() {
		if b, err := v.base.Ledger.Block(msg.Height); err == nil {
			resp.Decided = &b
		}
	} else if v.inst != nil && v.inst.height == msg.Height {
		resp.PrefSlot = v.inst.pref.Slot
	} else if p, ok := v.proposals[msg.Height]; ok {
		resp.PrefSlot = p.Slot
	}
	v.ctx.Send(from, resp)
}

func (v *validator) onResponse(msg responseMsg) {
	inst := v.inst
	if inst == nil || inst.accepted || !inst.roundOpen {
		return
	}
	if msg.Height != inst.height || msg.Seq != inst.roundSeq {
		return
	}
	if msg.Decided != nil {
		// The network already finalized this height; adopt directly.
		inst.accepted = true
		inst.roundOpen = false
		v.accept(*msg.Decided)
		return
	}
	inst.responses++
	switch {
	case msg.PrefSlot == inst.pref.Slot:
		inst.positives++
	case msg.PrefSlot >= 0:
		inst.flips[msg.PrefSlot]++
	}
	// A poll terminates as soon as its outcome is determined: alpha
	// positive chits already decide success, and a full sample decides
	// either way. Only polls that hit unresponsive peers run to the
	// timeout.
	if inst.positives >= v.cfg.Alpha || inst.responses >= v.cfg.K {
		v.closeRound(inst, inst.roundSeq)
	}
}

func (v *validator) closeRound(inst *instance, seq uint64) {
	if inst != v.inst || inst.accepted || !inst.roundOpen || inst.roundSeq != seq {
		return
	}
	inst.roundOpen = false
	if inst.positives < v.cfg.Alpha {
		v.base.Consensus(metrics.EventTimeout, inst.height, inst.pref.Proposer, "inconclusive poll")
	}
	if inst.positives >= v.cfg.Alpha {
		inst.confidence++
		if inst.confidence >= v.cfg.Beta {
			inst.accepted = true
			v.accept(chain.Block{
				Height:    inst.pref.Height,
				Proposer:  inst.pref.Proposer,
				Parent:    inst.pref.Parent,
				Txs:       inst.pref.Txs,
				DecidedAt: v.ctx.Now(),
			})
		}
		return
	}
	// Flip to a competing proposal that reached alpha (Snowflake rule).
	// Candidate slots are visited in ascending order: map iteration here
	// would make the flip choice (and therefore the whole run) depend on
	// Go's per-process map ordering when two competitors reach alpha in
	// the same poll.
	slots := make([]int, 0, len(inst.flips))
	for slot := range inst.flips {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		if count := inst.flips[slot]; count >= v.cfg.Alpha {
			if p, ok := v.proposals[inst.height]; ok && p.Slot == slot {
				if p.Proposer != inst.pref.Proposer {
					v.base.Consensus(metrics.EventLeaderChange, inst.height, p.Proposer, "preference flip")
				}
				inst.pref = p
			}
			break
		}
	}
	if inst.confidence > 0 {
		v.resets++
	}
	inst.confidence = 0
}

func (v *validator) accept(b chain.Block) {
	v.base.Consensus(metrics.EventCommit, b.Height, b.Proposer, "")
	v.base.SubmitBlock(b)
	delete(v.proposals, b.Height)
	tip := v.base.ChainTip()
	if p, ok := v.proposals[tip]; ok {
		v.startInstance(p)
		return
	}
	if v.inst != nil && v.inst.accepted {
		v.inst = nil
	}
	if v.base.HeadPending() > v.base.Ledger.Height() {
		v.base.StartCatchUp()
	}
}
