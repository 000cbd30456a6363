// Package client implements the DIABLO-style load clients: constant-rate
// transaction submitters that measure client-observed commit latency.
//
// Two SDK behaviours are modelled. The default client trusts a single
// validator, like the Algorand/Aptos/Avalanche/Solana SDKs. The secure
// client (STABL §7) submits every transaction to t+1 validators and reports
// it committed only once all of them answered, which is how an application
// defends against a Byzantine validator returning forged results.
package client

import (
	"time"

	"stabl/internal/chain"
	"stabl/internal/simnet"
	"stabl/internal/workload"
)

// Config parameterizes a Client.
type Config struct {
	// Index is the client's number, used for TxID namespacing.
	Index uint32
	// Endpoints are the validators this client submits to. One endpoint
	// is the default SDK behaviour; t+1 endpoints is the secure client.
	Endpoints []simnet.NodeID
	// Rate is the submission rate in tx/s.
	Rate float64
	// Stop is when the client stops submitting (it keeps listening for
	// confirmations afterwards). Zero means never stop.
	Stop time.Duration
	// Profile shapes the send rate over time (nil = constant). The
	// effective rate at time t is Rate * Profile(t).
	Profile workload.Profile
	// RetryAfter resubmits a transaction that has not been confirmed;
	// zero disables retries. Retries target the same endpoints and
	// deduplicate server-side, mirroring DIABLO's retry loop.
	RetryAfter time.Duration
	// MaxRetries bounds resubmissions per transaction.
	MaxRetries int
}

// pendingTx tracks one in-flight transaction.
type pendingTx struct {
	tx        chain.Tx
	confirmed map[simnet.NodeID]bool
	retries   int
	retryAt   time.Duration
}

// Client is a simnet endpoint that drives load into the chain under test.
type Client struct {
	cfg Config
	gen *workload.Generator
	submitState
}

// submitState is the submission bookkeeping Client and FlowClient mutate
// after construction, and their checkpoint — a flow is k clients behind one
// endpoint, and its state has the same shape regardless of k.
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

var _ simnet.Handler = (*Client)(nil)

// New creates a client; gen supplies its transactions.
func New(cfg Config, gen *workload.Generator) *Client {
	if len(cfg.Endpoints) == 0 {
		panic("client: no endpoints")
	}
	if cfg.Rate <= 0 {
		panic("client: rate must be positive")
	}
	return &Client{cfg: cfg, gen: gen, submitState: submitState{pending: make(map[chain.TxID]*pendingTx)}}
}

// Start implements simnet.Handler.
func (c *Client) Start(ctx *simnet.Context) {
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

// accrue implements profile-shaped submission.
func (c *Client) accrue() {
	now := c.ctx.Now()
	if c.cfg.Stop > 0 && now >= c.cfg.Stop {
		c.ticker.Stop()
		return
	}
	dt := now - c.lastAccrue
	c.lastAccrue = now
	rate := c.cfg.Rate * c.cfg.Profile(now)
	if rate < 0 {
		rate = 0
	}
	c.credits += rate * dt.Seconds()
	for c.credits >= 1 {
		c.credits--
		c.submit(now)
	}
}

// Stop implements simnet.Handler.
func (c *Client) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// Deliver implements simnet.Handler.
func (c *Client) Deliver(from simnet.NodeID, payload any) {
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
	if len(p.confirmed) < len(c.cfg.Endpoints) {
		return
	}
	// All endpoints confirmed (a single endpoint for the default SDK).
	lat := c.ctx.Now() - p.tx.Submitted
	c.latencies = append(c.latencies, lat.Seconds())
	c.completeAt = append(c.completeAt, c.ctx.Now())
	delete(c.pending, msg.ID)
}

func (c *Client) tick() {
	now := c.ctx.Now()
	if c.cfg.Stop > 0 && now >= c.cfg.Stop {
		c.ticker.Stop()
		return
	}
	c.submit(now)
}

func (c *Client) submit(now time.Duration) {
	tx := c.gen.Next(now)
	c.order = append(c.order, tx.ID)
	c.pending[tx.ID] = &pendingTx{
		tx:        tx,
		confirmed: make(map[simnet.NodeID]bool, len(c.cfg.Endpoints)),
		retryAt:   now + c.cfg.RetryAfter,
	}
	c.submitted++
	for _, ep := range c.cfg.Endpoints {
		c.ctx.Send(ep, chain.SubmitTx{Tx: tx})
	}
}

func (c *Client) checkRetries() {
	now := c.ctx.Now()
	// Walk in submission order, compacting completed entries as we go:
	// retransmissions draw latency samples from the shared network RNG, so
	// their order must be reproducible.
	live := c.order[:0]
	for _, id := range c.order {
		p, ok := c.pending[id]
		if !ok {
			continue
		}
		live = append(live, id)
		if p.retryAt > now {
			continue
		}
		if c.cfg.MaxRetries > 0 && p.retries >= c.cfg.MaxRetries {
			continue
		}
		p.retries++
		c.retried++
		p.retryAt = now + c.cfg.RetryAfter
		for _, ep := range c.cfg.Endpoints {
			if !p.confirmed[ep] {
				c.ctx.Send(ep, chain.SubmitTx{Tx: p.tx})
			}
		}
	}
	c.order = live
}

// Latencies returns the commit latencies (in seconds) of completed
// transactions, in completion order.
func (c *Client) Latencies() []float64 { return c.latencies }

// CompletionTimes returns when each completed transaction finished.
func (c *Client) CompletionTimes() []time.Duration { return c.completeAt }

// Submitted returns how many distinct transactions were issued.
func (c *Client) Submitted() int { return c.submitted }

// PendingCount returns how many transactions never completed.
func (c *Client) PendingCount() int { return len(c.pending) }

// Retried returns how many resubmissions occurred.
func (c *Client) Retried() int { return c.retried }
