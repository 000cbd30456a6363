// Package client implements the DIABLO-style load client: a constant-rate
// transaction submitter that measures client-observed commit latency.
//
// There is one load client, FlowClient: k modeled clients behind one simnet
// endpoint. k = 1 is the paper's deployment, one endpoint per client; larger
// k is the scale model, where the event-loop cost stays one ticker and one
// retry scan per flow however many clients it models.
//
// Two SDK behaviours are modelled through Fanout. The default client trusts a
// single validator, like the Algorand/Aptos/Avalanche/Solana SDKs. The secure
// client (STABL §7) submits every transaction to t+1 validators and reports
// it committed only once all of them answered, which is how an application
// defends against a Byzantine validator returning forged results.
package client

import (
	"slices"
	"time"

	"stabl/internal/chain"
	"stabl/internal/simnet"
	"stabl/internal/workload"
)

// FlowConfig parameterizes a FlowClient.
type FlowConfig struct {
	// Endpoints is the client-facing validator pool. Member m of the flow
	// submits to Endpoints[(start+m+j) mod len] for j < Fanout: a client's
	// endpoints depend on its global index only, so latency attribution per
	// modeled client is the same however the clients are cut into flows.
	Endpoints []simnet.NodeID
	// Start is the global index of the flow's first modeled client; it
	// offsets the endpoint round-robin so multiple flows tile the pool.
	Start int
	// Fanout is how many endpoints each modeled client submits to: 1 is
	// the default SDK, t+1 the secure client.
	Fanout int
	// Rate is the per-modeled-client submission rate in tx/s. Each flow
	// tick submits one transaction per member, so the aggregate rate is
	// Rate * k while the event-loop cost stays one ticker per flow.
	Rate float64
	// Stop is when the flow stops submitting (zero = never).
	Stop time.Duration
	// Profile shapes the send rate over time (nil = constant).
	Profile workload.Profile
	// RetryAfter resubmits unconfirmed transactions; zero disables.
	RetryAfter time.Duration
	// MaxRetries bounds resubmissions per transaction.
	MaxRetries int
	// VirtualBase is the node id member 0 holds when every client is its
	// own flow. Each member m submits via Context.SendAs with virtual id
	// VirtualBase+m, so its latency/loss/jitter draws come from the streams
	// of that id whichever flow carries it — that is what keeps trajectories
	// byte-identical across partitions of the same clients under the
	// network's per-sender-node RNG streams. A single-member flow's virtual
	// id is its own node id.
	VirtualBase simnet.NodeID
}

// pendingTx tracks one in-flight transaction.
type pendingTx struct {
	tx        chain.Tx
	confirmed map[simnet.NodeID]bool
	retries   int
	retryAt   time.Duration
}

// FlowClient is a simnet endpoint that drives the workload of k modeled
// clients into the chain under test. Submission instants, per-member endpoint
// choice, retry order and confirmation semantics do not depend on how the
// clients are partitioned into flows (see workload.Flow for the equivalence
// contract): k single-member flows and one k-member flow differ only in
// event-loop cost — one ticker and one retry scan serve a whole flow.
type FlowClient struct {
	cfg  FlowConfig
	flow *workload.Flow
	submitState
}

// submitState is the submission bookkeeping a FlowClient mutates after
// construction, and its checkpoint; its shape does not depend on k.
type submitState struct {
	ctx        *simnet.Context
	ticker     interface{ Stop() }
	pending    map[chain.TxID]*pendingTx
	order      []chain.TxID // pending txs in submission order; retries must not follow map order
	credits    float64
	lastAccrue time.Duration
	latencies  []float64 // seconds, completed transactions
	completeAt []time.Duration
	submitted  int
	retried    int
	duplicates int
}

var _ simnet.Handler = (*FlowClient)(nil)

// NewFlow creates a flow client; flow supplies its transactions.
func NewFlow(cfg FlowConfig, flow *workload.Flow) *FlowClient {
	if len(cfg.Endpoints) == 0 {
		panic("client: flow has no endpoints")
	}
	if cfg.Fanout <= 0 || cfg.Fanout > len(cfg.Endpoints) {
		panic("client: flow fanout out of range")
	}
	if cfg.Rate <= 0 {
		panic("client: flow rate must be positive")
	}
	return &FlowClient{cfg: cfg, flow: flow, submitState: submitState{pending: make(map[chain.TxID]*pendingTx)}}
}

// Start implements simnet.Handler.
func (c *FlowClient) Start(ctx *simnet.Context) {
	c.ctx = ctx
	interval := time.Duration(float64(time.Second) / c.cfg.Rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	if c.cfg.Profile == nil {
		c.ticker = ctx.Every(interval, c.tick)
	} else {
		// Profiled rates accrue fractional credits on a fine tick and
		// submit whole transactions as they complete.
		c.lastAccrue = ctx.Now()
		step := interval / 4
		if step <= 0 {
			step = time.Millisecond
		}
		c.ticker = ctx.Every(step, c.accrue)
	}
	if c.cfg.RetryAfter > 0 {
		ctx.Every(time.Second, c.checkRetries)
	}
}

// Stop implements simnet.Handler.
func (c *FlowClient) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// endpoints writes member m's endpoint set into buf and returns it.
func (c *FlowClient) endpoints(member uint32, buf []simnet.NodeID) []simnet.NodeID {
	buf = buf[:0]
	n := len(c.cfg.Endpoints)
	for j := 0; j < c.cfg.Fanout; j++ {
		buf = append(buf, c.cfg.Endpoints[(c.cfg.Start+int(member)+j)%n])
	}
	return buf
}

func (c *FlowClient) tick() {
	now := c.ctx.Now()
	if c.cfg.Stop > 0 && now >= c.cfg.Stop {
		c.ticker.Stop()
		return
	}
	c.submitRound(now)
}

// accrue implements profile-shaped submission. Credits accrue at the
// per-member rate — every member's credit trajectory is identical, so one
// counter stands in for all k, and each whole credit releases one
// transaction per member.
func (c *FlowClient) accrue() {
	now := c.ctx.Now()
	if c.cfg.Stop > 0 && now >= c.cfg.Stop {
		c.ticker.Stop()
		return
	}
	dt := now - c.lastAccrue
	c.lastAccrue = now
	rate := c.cfg.Rate
	if c.cfg.Profile != nil {
		rate *= c.cfg.Profile(now)
	}
	if rate < 0 {
		rate = 0
	}
	c.credits += rate * dt.Seconds()
	for c.credits >= 1 {
		c.credits--
		c.submitRound(now)
	}
}

// submitRound submits one transaction per modeled client, in member order —
// the global order single-member flows produce at a shared tick instant
// (their tickers fire in client order).
func (c *FlowClient) submitRound(now time.Duration) {
	var epBuf [8]simnet.NodeID
	k := c.flow.Clients()
	for m := 0; m < k; m++ {
		tx := c.flow.Next(now)
		c.order = append(c.order, tx.ID)
		c.pending[tx.ID] = &pendingTx{
			tx:        tx,
			confirmed: make(map[simnet.NodeID]bool, c.cfg.Fanout),
			retryAt:   now + c.cfg.RetryAfter,
		}
		c.submitted++
		eps := c.endpoints(uint32(m), epBuf[:0])
		virtual := c.cfg.VirtualBase + simnet.NodeID(m)
		for _, ep := range eps {
			c.ctx.SendAs(virtual, ep, chain.SubmitTx{Tx: tx})
		}
	}
}

// Deliver implements simnet.Handler.
func (c *FlowClient) Deliver(from simnet.NodeID, payload any) {
	msg, ok := payload.(chain.TxCommitted)
	if !ok {
		return
	}
	p, ok := c.pending[msg.ID]
	if !ok {
		c.duplicates++
		return
	}
	p.confirmed[from] = true
	if len(p.confirmed) < c.cfg.Fanout {
		return
	}
	// All endpoints confirmed (a single endpoint for the default SDK).
	lat := c.ctx.Now() - p.tx.Submitted
	c.latencies = append(c.latencies, lat.Seconds())
	c.completeAt = append(c.completeAt, c.ctx.Now())
	delete(c.pending, msg.ID)
}

// checkRetries rescans pending transactions once per second. Single-member
// flows scan client by client (each owns a retry ticker, firing in client
// order), so a flow walks its live set in TxID order — (member, sequence)
// lexicographic — which is exactly that global order.
func (c *FlowClient) checkRetries() {
	now := c.ctx.Now()
	// Compact completed entries out of the submission-order list, then
	// resubmit in (member, seq) order: retransmissions draw latency samples
	// from the network's RNG streams, so their order must not depend on the
	// partition. One member's submission order is already TxID order, so the
	// sorted copy is only taken when the data needs it.
	live := c.order[:0]
	for _, id := range c.order {
		if _, ok := c.pending[id]; ok {
			live = append(live, id)
		}
	}
	c.order = live
	scan := live
	if !slices.IsSorted(scan) {
		scan = slices.Clone(live)
		slices.Sort(scan)
	}
	var epBuf [8]simnet.NodeID
	for _, id := range scan {
		p := c.pending[id]
		if p.retryAt > now {
			continue
		}
		if c.cfg.MaxRetries > 0 && p.retries >= c.cfg.MaxRetries {
			continue
		}
		p.retries++
		c.retried++
		p.retryAt = now + c.cfg.RetryAfter
		member := uint32(p.tx.ID>>32) - uint32(c.flowStart())
		eps := c.endpoints(member, epBuf[:0])
		virtual := c.cfg.VirtualBase + simnet.NodeID(member)
		for _, ep := range eps {
			if !p.confirmed[ep] {
				c.ctx.SendAs(virtual, ep, chain.SubmitTx{Tx: p.tx})
			}
		}
	}
}

// flowStart returns the global index of member 0 (the TxID namespace base).
func (c *FlowClient) flowStart() int { return c.cfg.Start }

// Clients returns how many clients this flow models.
func (c *FlowClient) Clients() int { return c.flow.Clients() }

// Latencies returns the commit latencies (in seconds) of completed
// transactions, in completion order.
func (c *FlowClient) Latencies() []float64 { return c.latencies }

// CompletionTimes returns when each completed transaction finished.
func (c *FlowClient) CompletionTimes() []time.Duration { return c.completeAt }

// Submitted returns how many distinct transactions were issued.
func (c *FlowClient) Submitted() int { return c.submitted }

// PendingCount returns how many transactions never completed.
func (c *FlowClient) PendingCount() int { return len(c.pending) }

// Retried returns how many resubmissions occurred.
func (c *FlowClient) Retried() int { return c.retried }
