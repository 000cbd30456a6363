package client

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"stabl/internal/chain"
	"stabl/internal/sim"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
	"stabl/internal/workload"
)

// mapFlowClient is the load client as it was before the positional window:
// in-flight transactions in a map keyed by TxID, confirmations in a map per
// transaction keyed by sender, and a retry scan over every pending
// transaction each second. It is kept as the reference the window, the
// confirmation bits and the due queue are held to.
type mapFlowClient struct {
	cfg  FlowConfig
	flow *workload.Flow
	mapState
}

type mapPendingTx struct {
	tx        chain.Tx
	confirmed map[simnet.NodeID]bool
	retries   int
	retryAt   time.Duration
}

type mapState struct {
	ctx        *simnet.Context
	ticker     interface{ Stop() }
	pending    map[chain.TxID]*mapPendingTx
	order      []chain.TxID
	latencies  []float64
	completeAt []time.Duration
	submitted  int
	retried    int
}

func newMapFlow(cfg FlowConfig, flow *workload.Flow) *mapFlowClient {
	return &mapFlowClient{cfg: cfg, flow: flow, mapState: mapState{pending: make(map[chain.TxID]*mapPendingTx)}}
}

func (c *mapFlowClient) Start(ctx *simnet.Context) {
	c.ctx = ctx
	c.ticker = ctx.Every(time.Duration(float64(time.Second)/c.cfg.Rate), c.tick)
	if c.cfg.RetryAfter > 0 {
		ctx.Every(time.Second, c.checkRetries)
	}
}

func (c *mapFlowClient) Stop() { c.ticker.Stop() }

func (c *mapFlowClient) endpoints(member uint32) []simnet.NodeID {
	var eps []simnet.NodeID
	n := len(c.cfg.Endpoints)
	for j := 0; j < c.cfg.Fanout; j++ {
		eps = append(eps, c.cfg.Endpoints[(c.cfg.Start+int(member)+j)%n])
	}
	return eps
}

func (c *mapFlowClient) tick() {
	now := c.ctx.Now()
	if c.cfg.Stop > 0 && now >= c.cfg.Stop {
		c.ticker.Stop()
		return
	}
	for m := 0; m < c.flow.Clients(); m++ {
		tx := c.flow.Next(now)
		c.order = append(c.order, tx.ID)
		c.pending[tx.ID] = &mapPendingTx{
			tx:        tx,
			confirmed: make(map[simnet.NodeID]bool, c.cfg.Fanout),
			retryAt:   now + c.cfg.RetryAfter,
		}
		c.submitted++
		for _, ep := range c.endpoints(uint32(m)) {
			c.ctx.SendAs(c.cfg.VirtualBase+simnet.NodeID(m), ep, chain.SubmitTx{Tx: tx})
		}
	}
}

func (c *mapFlowClient) Deliver(from simnet.NodeID, payload any) {
	msg, ok := payload.(chain.TxCommitted)
	if !ok {
		return
	}
	p, ok := c.pending[msg.ID]
	if !ok {
		return
	}
	p.confirmed[from] = true
	if len(p.confirmed) < c.cfg.Fanout {
		return
	}
	lat := c.ctx.Now() - p.tx.Submitted
	c.latencies = append(c.latencies, lat.Seconds())
	c.completeAt = append(c.completeAt, c.ctx.Now())
	delete(c.pending, msg.ID)
}

func (c *mapFlowClient) checkRetries() {
	now := c.ctx.Now()
	live := c.order[:0]
	for _, id := range c.order {
		if _, ok := c.pending[id]; ok {
			live = append(live, id)
		}
	}
	c.order = live
	scan := slices.Clone(live)
	slices.Sort(scan)
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
		member := uint32(p.tx.ID>>32) - uint32(c.cfg.Start)
		for _, ep := range c.endpoints(member) {
			if !p.confirmed[ep] {
				c.ctx.SendAs(c.cfg.VirtualBase+simnet.NodeID(member), ep, chain.SubmitTx{Tx: p.tx})
			}
		}
	}
}

func (s *mapState) clone() *mapState {
	c := *s
	c.pending = make(map[chain.TxID]*mapPendingTx, len(s.pending))
	for id, p := range s.pending {
		cp := *p
		cp.confirmed = maps.Clone(p.confirmed)
		c.pending[id] = &cp
	}
	c.order = slices.Clone(s.order)
	c.latencies = slices.Clone(s.latencies)
	c.completeAt = slices.Clone(s.completeAt)
	return &c
}

func (c *mapFlowClient) Snapshot() snapshot.State         { return c.mapState.clone() }
func (c *mapFlowClient) Restore(st snapshot.State)        { c.mapState = *st.(*mapState).clone() }
func (c *mapFlowClient) Latencies() []float64             { return c.latencies }
func (c *mapFlowClient) CompletionTimes() []time.Duration { return c.completeAt }
func (c *mapFlowClient) Submitted() int                   { return c.submitted }
func (c *mapFlowClient) Retried() int                     { return c.retried }
func (c *mapFlowClient) PendingCount() int                { return len(c.pending) }

// loadClient is what the comparison drives: either implementation.
type loadClient interface {
	simnet.Handler
	snapshot.Forkable
	Latencies() []float64
	CompletionTimes() []time.Duration
	Submitted() int
	Retried() int
	PendingCount() int
}

// wireRec is one submission as a validator saw it. The sender's virtual id is
// a function of the transaction's member, and the arrival instant is drawn
// from that id's latency stream at send time, so equal record sequences mean
// equal send sequences, RNG draw order included.
type wireRec struct {
	at time.Duration
	ep simnet.NodeID
	tx chain.Tx
}

// scriptNode answers submissions by a schedule that is a pure function of
// (seed, node, transaction, arrival instant): it loses some, confirms most
// after a delay that may outlast the retry deadline (so the retry's answer
// arrives as a late duplicate), and confirms some twice. It keeps no state of
// its own, so rewinding the scheduler rewinds it.
type scriptNode struct {
	ctx  *simnet.Context
	id   simnet.NodeID
	seed uint64
	wire *[]wireRec
}

func (a *scriptNode) Start(ctx *simnet.Context) { a.ctx = ctx }
func (a *scriptNode) Stop()                     {}
func (a *scriptNode) Deliver(from simnet.NodeID, payload any) {
	sub, ok := payload.(chain.SubmitTx)
	if !ok {
		return
	}
	now := a.ctx.Now()
	*a.wire = append(*a.wire, wireRec{at: now, ep: a.id, tx: sub.Tx})
	h := a.seed ^ uint64(a.id)<<56 ^ uint64(sub.Tx.ID)*0x9E3779B97F4A7C15 ^ uint64(now)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	verdict, delay := h%8, time.Duration(1+h>>8%4000)*time.Millisecond
	if verdict < 2 {
		return // lost
	}
	answer := func() { a.ctx.Send(from, chain.TxCommitted{ID: sub.Tx.ID}) }
	a.ctx.After(delay, answer)
	if verdict == 2 {
		a.ctx.After(delay+time.Duration(1+h>>24%3000)*time.Millisecond, answer)
	}
}

// flowOutcome is everything the comparison holds equal.
type flowOutcome struct {
	wire                        []wireRec
	latencies                   []float64
	completeAt                  []time.Duration
	submitted, retried, pending int
}

func (o flowOutcome) diff(want flowOutcome) string {
	switch {
	case !slices.Equal(o.wire, want.wire):
		for i := range min(len(o.wire), len(want.wire)) {
			if o.wire[i] != want.wire[i] {
				return fmt.Sprintf("send %d: %+v, want %+v", i, o.wire[i], want.wire[i])
			}
		}
		return fmt.Sprintf("%d sends, want %d", len(o.wire), len(want.wire))
	case !slices.Equal(o.latencies, want.latencies):
		return fmt.Sprintf("latencies differ (%d vs %d samples)", len(o.latencies), len(want.latencies))
	case !slices.Equal(o.completeAt, want.completeAt):
		return "completion times differ"
	case o.submitted != want.submitted || o.retried != want.retried || o.pending != want.pending:
		return fmt.Sprintf("submitted/retried/pending %d/%d/%d, want %d/%d/%d",
			o.submitted, o.retried, o.pending, want.submitted, want.retried, want.pending)
	}
	return ""
}

// runSchedule drives one implementation over the scripted schedule: run to a
// checkpoint mid-run, on to the horizon, rewind, and on to the horizon again.
// The two continuations must agree; the outcome is theirs. For the positional
// client it also checks the window and due queue (checkDueQueue) every half
// second.
func runSchedule(t testing.TB, positional bool, seed uint64, k, fanout, maxRetries int) flowOutcome {
	t.Helper()
	const nodes, start = 5, 3
	sched := sim.New(int64(seed))
	net := simnet.New(sched, simnet.Config{Latency: simnet.UniformLatency{Min: time.Millisecond, Max: 40 * time.Millisecond}})
	var wire []wireRec
	cfg := FlowConfig{
		Start: start, Fanout: fanout, Rate: 4, Stop: 9 * time.Second,
		RetryAfter: 2 * time.Second, MaxRetries: maxRetries, VirtualBase: 100 + start,
	}
	for i := 0; i < nodes; i++ {
		net.AddNode(simnet.NodeID(i), &scriptNode{id: simnet.NodeID(i), seed: seed, wire: &wire})
		cfg.Endpoints = append(cfg.Endpoints, simnet.NodeID(i))
	}
	fl, err := workload.NewFlow(start, k, 4, 0, 4*k, 4*k, sched.RNG("wl"))
	if err != nil {
		t.Fatal(err)
	}
	var c loadClient
	if positional {
		c = NewFlow(cfg, fl)
	} else {
		c = newMapFlow(cfg, fl)
	}
	net.AddNode(100, c)
	net.StartAll()

	runTo := func(deadline time.Duration) {
		for sched.Now() < deadline {
			sched.RunUntil(min(deadline, sched.Now()+500*time.Millisecond))
			if fc, ok := c.(*FlowClient); ok {
				checkDueQueue(t, fc)
			}
		}
	}
	outcome := func() flowOutcome {
		return flowOutcome{
			wire:      slices.Clone(wire),
			latencies: slices.Clone(c.Latencies()), completeAt: slices.Clone(c.CompletionTimes()),
			submitted: c.Submitted(), retried: c.Retried(), pending: c.PendingCount(),
		}
	}
	var world snapshot.Set
	world.Add(sched, net, fl, c)
	runTo(5 * time.Second)
	check, sent := world.Snapshot(), len(wire)
	runTo(25 * time.Second)
	first := outcome()
	world.Restore(check)
	wire = wire[:sent]
	runTo(25 * time.Second)
	if d := outcome().diff(first); d != "" {
		t.Fatalf("positional=%v: the continuation from the checkpoint diverges from the first: %s", positional, d)
	}
	return first
}

// checkDueQueue asserts the client's structural invariants: deadlines
// non-decreasing along the due queue, no transaction listed twice, every
// unfinished transaction still entitled to a retry listed, and the window
// starting at the oldest unfinished transaction with PendingCount of them.
func checkDueQueue(t testing.TB, c *FlowClient) {
	t.Helper()
	seen := make(map[chain.TxID]bool, len(c.due))
	for i, e := range c.due {
		if i > 0 && e.at < c.due[i-1].at {
			t.Fatalf("due queue out of order at %d: %v after %v", i, e.at, c.due[i-1].at)
		}
		if seen[e.id] {
			t.Fatalf("%v is in the due queue twice", e.id)
		}
		seen[e.id] = true
	}
	unfinished := 0
	for i, p := range c.window {
		if p.left == 0 {
			continue
		}
		unfinished++
		if !seen[p.tx.ID] && (c.cfg.MaxRetries == 0 || int(p.retries) < c.cfg.MaxRetries) {
			t.Fatalf("unfinished %v (window %d, %d retries) has no armed retry", p.tx.ID, i, p.retries)
		}
	}
	if len(c.window) > 0 && c.window[0].left == 0 {
		t.Fatalf("head did not move past a completed transaction (%v)", c.window[0].tx.ID)
	}
	if unfinished != c.PendingCount() || len(c.answered) != len(c.window)*c.stride {
		t.Fatalf("window holds %d unfinished over %d words, PendingCount %d over %d entries",
			unfinished, len(c.answered), c.PendingCount(), len(c.window))
	}
}

// TestFlowClientEqualsMapReference: over scripted schedules of confirmations,
// losses, late duplicates and retries, with a rewind mid-run, the positional
// client puts the same submissions on the wire at the same instants as the
// map-based client it replaced and measures the same latencies and counts.
func TestFlowClientEqualsMapReference(t *testing.T) {
	for _, k := range []int{1, 3, 128} {
		for _, fanout := range []int{1, 4} {
			for _, maxRetries := range []int{0, 2} {
				t.Run(fmt.Sprintf("k=%d/fanout=%d/retries=%d", k, fanout, maxRetries), func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						want := runSchedule(t, false, seed, k, fanout, maxRetries)
						got := runSchedule(t, true, seed, k, fanout, maxRetries)
						if want.retried == 0 || want.pending == want.submitted || len(want.latencies) == 0 {
							t.Fatalf("seed %d: the schedule exercises nothing: %d retried, %d of %d pending",
								seed, want.retried, want.pending, want.submitted)
						}
						if d := got.diff(want); d != "" {
							t.Fatalf("seed %d: positional client diverges from the map reference: %s", seed, d)
						}
					}
				})
			}
		}
	}
}

// FuzzFlowClient is the same comparison over fuzzed schedule seeds and shapes.
func FuzzFlowClient(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(4), uint8(2))
	f.Add(uint64(3), uint8(128), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, k, fanout, maxRetries uint8) {
		kk, ff, mm := 1+int(k)%128, 1+int(fanout)%5, int(maxRetries)%4
		want := runSchedule(t, false, seed, kk, ff, mm)
		got := runSchedule(t, true, seed, kk, ff, mm)
		if d := got.diff(want); d != "" {
			t.Fatalf("seed %d k=%d fanout=%d retries=%d: %s", seed, kk, ff, mm, d)
		}
	})
}
