// Package client implements the DIABLO-style load client: a constant-rate
// transaction submitter that measures client-observed commit latency.
//
// There is one load client, FlowClient: k modeled clients behind one simnet
// endpoint. k = 1 is the paper's deployment, one endpoint per client; larger
// k is the scale model, where the event-loop cost stays one ticker and one
// retry queue per flow however many clients it models.
//
// Two SDK behaviours are modelled through Fanout. The default client trusts a
// single validator, like the Algorand/Aptos/Avalanche/Solana SDKs. The secure
// client (STABL §7) submits every transaction to t+1 validators and reports
// it committed only once all of them answered, which is how an application
// defends against a Byzantine validator returning forged results.
package client

import (
	"cmp"
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

// pendingTx is one window entry: a submitted transaction and how much of its
// confirmation is still outstanding.
type pendingTx struct {
	tx      chain.Tx
	retries int32
	left    int32 // endpoint slots that have not answered; zero once completed
}

// dueEntry is one armed retry: id is due for resubmission at instant at.
type dueEntry struct {
	id chain.TxID
	at time.Duration
}

// FlowClient is a simnet endpoint that drives the workload of k modeled
// clients into the chain under test. Submission instants, per-member endpoint
// choice, retry order and confirmation semantics do not depend on how the
// clients are partitioned into flows (see workload.Flow for the equivalence
// contract): k single-member flows and one k-member flow differ only in
// event-loop cost — one ticker and one retry queue serve a whole flow.
//
// In-flight transactions are addressed by position: workload.Flow emits
// member m's t-th transaction as the flow's (t·k + m)-th, so that ordinal
// minus head indexes window. The window retains the span from the oldest
// unfinished transaction to the newest — a completed transaction behind an
// unfinished one keeps its entry (its left is zero) until the prefix before
// it completes and head moves past both.
type FlowClient struct {
	cfg  FlowConfig
	flow *workload.Flow
	// poolPos[id] is id's position in cfg.Endpoints, -1 for a node outside
	// the pool; member m's endpoint slot j is position (Start+m+j) mod len.
	poolPos []int32
	// stride is the confirmation words per window entry: one bit per
	// endpoint slot, Fanout of them.
	stride int
	submitState
}

// submitState is the submission bookkeeping a FlowClient mutates after
// construction, and its checkpoint (slice copies); its shape does not depend
// on k.
type submitState struct {
	ctx    *simnet.Context
	ticker interface{ Stop() }
	// window[i] is the transaction of ordinal head+i, answered[i*stride:] its
	// confirmation bits by endpoint slot; *Arr hold their arrays (see push).
	window      []pendingTx
	answered    []uint64
	windowArr   []pendingTx
	answeredArr []uint64
	head        int
	// due lists the armed retries in arm order. RetryAfter is constant and
	// events fire in time order, so at is non-decreasing along it: the due
	// entries are a prefix. Every unfinished transaction still entitled to
	// a retry has exactly one entry.
	due        []dueEntry
	credits    float64
	lastAccrue time.Duration
	latencies  []float64 // seconds, completed transactions
	completeAt []time.Duration
	submitted  int
	retried    int
	// ignored counts the answers that confirmed nothing: for a transaction
	// already completed (a late duplicate), from an endpoint that had
	// already answered, or from a node the member never asked.
	ignored int
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
	c := &FlowClient{cfg: cfg, flow: flow, stride: (cfg.Fanout + 63) / 64}
	c.poolPos = make([]int32, int(slices.Max(cfg.Endpoints))+1)
	for i := range c.poolPos {
		c.poolPos[i] = -1
	}
	for pos, id := range cfg.Endpoints {
		c.poolPos[id] = int32(pos)
	}
	return c
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
	c.ticker.Stop()
}

// index returns id's position in window, or -1 when the window does not hold
// it: another flow's transaction, one never submitted, or one behind head.
func (c *FlowClient) index(id chain.TxID) int {
	k := c.flow.Clients()
	member := int(id.Client()) - c.cfg.Start
	if member < 0 || member >= k {
		return -1
	}
	i := int(id.Seq())*k + member - c.head
	if i < 0 || i >= len(c.window) {
		return -1
	}
	return i
}

// slot returns which endpoint slot of id's member node is, or -1 when the
// member never submits to it. A member's slot 0 is the pool position of its
// global client index, which is what a TxID carries.
func (c *FlowClient) slot(id chain.TxID, node simnet.NodeID) int {
	if uint(node) >= uint(len(c.poolPos)) || c.poolPos[node] < 0 {
		return -1
	}
	n := len(c.cfg.Endpoints)
	if j := (int(c.poolPos[node]) - int(id.Client())%n + n) % n; j < c.cfg.Fanout {
		return j
	}
	return -1
}

// send submits window entry i to its member's endpoint slots whose answered
// bit is clear, in slot order, boxing the message once.
func (c *FlowClient) send(i int) {
	tx, answered := c.window[i].tx, c.answered[i*c.stride:]
	n := len(c.cfg.Endpoints)
	pos := int(tx.ID.Client()) % n
	virtual := c.cfg.VirtualBase + simnet.NodeID(int(tx.ID.Client())-c.cfg.Start)
	var msg any = chain.SubmitTx{Tx: tx}
	for j := 0; j < c.cfg.Fanout; j++ {
		if answered[j>>6]&(1<<(j&63)) == 0 {
			c.ctx.SendAs(virtual, c.cfg.Endpoints[pos], msg)
		}
		if pos++; pos == n {
			pos = 0
		}
	}
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
	for range c.flow.Clients() {
		tx := c.flow.Next(now)
		c.window = push(c.window, &c.windowArr, pendingTx{tx: tx, left: int32(c.cfg.Fanout)})
		if c.index(tx.ID) != len(c.window)-1 {
			panic("client: flow emitted a transaction out of ordinal order")
		}
		for w := 0; w < c.stride; w++ {
			c.answered = push(c.answered, &c.answeredArr, 0)
		}
		if c.cfg.RetryAfter > 0 {
			c.due = append(c.due, dueEntry{id: tx.ID, at: now + c.cfg.RetryAfter})
		}
		c.submitted++
		c.send(len(c.window) - 1)
	}
}

// Deliver implements simnet.Handler. A TxCommitted counts toward Fanout only
// when it comes from an endpoint slot the member submitted to and that slot
// had not answered yet: "t+1 answered" means the t+1 validators asked.
func (c *FlowClient) Deliver(from simnet.NodeID, payload any) {
	msg, ok := payload.(chain.TxCommitted)
	if !ok {
		return
	}
	i, slot := c.index(msg.ID), c.slot(msg.ID, from)
	if i < 0 || slot < 0 || c.window[i].left == 0 {
		c.ignored++
		return
	}
	word, bit := &c.answered[i*c.stride+slot>>6], uint64(1)<<(slot&63)
	if *word&bit != 0 {
		c.ignored++
		return
	}
	*word |= bit
	p := &c.window[i]
	if p.left--; p.left > 0 {
		return
	}
	// All endpoints confirmed (a single endpoint for the default SDK).
	lat := c.ctx.Now() - p.tx.Submitted
	c.latencies = append(c.latencies, lat.Seconds())
	c.completeAt = append(c.completeAt, c.ctx.Now())
	done := 0
	for done < len(c.window) && c.window[done].left == 0 {
		done++
	}
	c.window, c.answered, c.head = c.window[done:], c.answered[done*c.stride:], c.head+done
}

// checkRetries resubmits, once per second, the unfinished transactions whose
// retry came due: the prefix of the due queue. Single-member flows scan
// client by client (each owns a retry ticker, firing in client order), so a
// flow resubmits in TxID order — (member, sequence) lexicographic — which is
// exactly that global order: retransmissions draw latency samples from the
// network's RNG streams, so their order must not depend on the partition.
func (c *FlowClient) checkRetries() {
	now := c.ctx.Now()
	n := 0
	for n < len(c.due) && c.due[n].at <= now {
		n++
	}
	// The popped prefix is scratch until the survivors move over it below.
	batch := c.due[:n]
	slices.SortFunc(batch, func(a, b dueEntry) int { return cmp.Compare(a.id, b.id) })
	for _, e := range batch {
		i := c.index(e.id)
		if i < 0 || c.window[i].left == 0 {
			continue // completed since this retry was armed
		}
		p := &c.window[i]
		p.retries++
		c.retried++
		if c.cfg.MaxRetries == 0 || int(p.retries) < c.cfg.MaxRetries {
			c.due = append(c.due, dueEntry{id: e.id, at: now + c.cfg.RetryAfter})
		}
		c.send(i)
	}
	c.due = c.due[:copy(c.due, c.due[n:])]
}

// push appends v to q, the tail of a FIFO resliced off the array *arr starts.
// When q fills the array and the consumed cells before it are at least as
// many as its own, q first moves to the front, reusing the array.
func push[T any](q []T, arr *[]T, v T) []T {
	if len(q) < cap(q) {
		return append(q, v)
	}
	if free := cap(*arr) - cap(q); free > 0 && free >= len(q) {
		return append((*arr)[:copy((*arr)[:len(q)], q)], v)
	}
	q = append(q, v)
	*arr = q[:0]
	return q
}

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
func (c *FlowClient) PendingCount() int { return c.submitted - len(c.latencies) }

// Retried returns how many resubmissions occurred.
func (c *FlowClient) Retried() int { return c.retried }
