// Package probes measures single layers from outside: each probe builds its
// layer through the layer's exported constructors, drives it on an input
// shaped like the workload it is reported under (node count, standing queue
// depth, committee size) and reports the median cost per operation of five
// timed batches. The bodies are the benchmark's own — they do not share code
// with internal/kernelbench, which performance changes are free to edit.
//
// The package imports simulated packages, so it reads no wall clock itself
// (the determinism lint forbids it): batches are timed through
// benchmark/trace. It declares a simnet.Handler and therefore uses no
// goroutines and no sync primitives.
package probes

import (
	"math/rand"
	"sort"
	"time"

	"stabl/benchmark/trace"
	"stabl/internal/chain"
	"stabl/internal/committee"
	"stabl/internal/metrics"
	"stabl/internal/overlay"
	"stabl/internal/scenario"
	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// batches is how many timed batches a probe takes; it reports their median.
const batches = 5

// Set runs probes with a common time budget and seed.
type Set struct {
	// Budget is the least total measuring time of one probe; each of the
	// five batches runs for at least a fifth of it.
	Budget time.Duration
	// Seed derives every pseudo-random input (delays, topologies).
	Seed int64
}

// measure calls round in batches and returns the median nanoseconds per
// round. round(n) must perform n rounds. The batch size is grown until one
// batch fills its share of the budget, then five batches are timed.
func (s Set) measure(round func(n int)) float64 {
	per := s.Budget / batches
	n := 1
	for {
		start := trace.Now()
		round(n)
		d := trace.Now() - start
		if d >= per || n >= 1<<40 {
			break
		}
		if d < per/16 {
			n *= 8
		} else {
			// Aim a fifth past the target so the next batch fills it.
			n = int(float64(n)*float64(per)/float64(d)*1.2) + 1
		}
	}
	ns := make([]float64, batches)
	for i := range ns {
		start := trace.Now()
		round(n)
		ns[i] = float64(trace.Now()-start) / float64(n)
	}
	sort.Float64s(ns)
	return ns[batches/2]
}

// delays is a table of link delays drawn uniformly from the default 5–25 ms
// latency model, so queue probes see the key distribution real runs produce.
func (s Set) delays() []time.Duration {
	rng := sim.New(s.Seed).RNG("probe/delays")
	out := make([]time.Duration, 1024)
	for i := range out {
		out[i] = 5*time.Millisecond + time.Duration(rng.Int63n(int64(20*time.Millisecond)))
	}
	return out
}

// QueueNsPerEvent is the cost of one event through the scheduler's queue at
// a standing depth: each round schedules one event a link delay ahead and
// executes the earliest one, so the heap stays depth entries deep (the
// classic hold model).
func (s Set) QueueNsPerEvent(depth int) float64 {
	sched := sim.New(s.Seed)
	delays := s.delays()
	fn := func() {}
	for i := 0; i < depth; i++ {
		sched.At(delays[i%len(delays)]-5*time.Millisecond, fn)
	}
	k := 0
	return s.measure(func(n int) {
		for i := 0; i < n; i++ {
			sched.At(sched.Now()+delays[k%len(delays)], fn)
			k++
			sched.Step()
		}
	})
}

// sink counts deliveries and does nothing else, so the network probes
// measure simnet and not an application.
type sink struct {
	ctx       *simnet.Context
	delivered int
}

func (h *sink) Start(ctx *simnet.Context)      { h.ctx = ctx }
func (h *sink) Deliver(_ simnet.NodeID, _ any) { h.delivered++ }
func (h *sink) Stop()                          {}

// network builds n sink nodes on the default latency model, connection
// layer off, and returns them started.
func (s Set) network(n int) (*sim.Scheduler, *simnet.Network, []*sink, []simnet.NodeID) {
	sched := sim.New(s.Seed)
	net := simnet.New(sched, simnet.Config{})
	sinks := make([]*sink, n)
	ids := make([]simnet.NodeID, n)
	for i := range sinks {
		sinks[i] = &sink{}
		ids[i] = simnet.NodeID(i)
		net.AddNode(ids[i], sinks[i])
	}
	net.StartAll()
	return sched, net, sinks, ids
}

// payload is what the network probes send: a transaction submission, the
// most common message of a run, boxed once as the chains box theirs.
var payload any = chain.SubmitTx{Tx: chain.Tx{ID: chain.MakeTxID(1, 1), From: 1, To: 2, Amount: 1}}

// unicast times point-to-point sends between two nodes under the hold model
// of QueueNsPerEvent: each round tops the in-flight messages up to depth and
// delivers the earliest one, so the cost is taken at the same standing queue
// depth and the two subtract cleanly.
func (s Set) unicast(depth int, arm func(*simnet.Network)) float64 {
	sched, net, sinks, _ := s.network(2)
	if arm != nil {
		arm(net)
	}
	return s.measure(func(n int) {
		for i := 0; i < n; i++ {
			for sched.Pending() < depth {
				sinks[0].ctx.Send(1, payload)
			}
			sched.Step()
		}
	})
}

// UnicastNsPerMsg is the cost of one message through simnet's send→deliver
// path at a standing depth, its scheduler event included.
func (s Set) UnicastNsPerMsg(depth int) float64 { return s.unicast(depth, nil) }

// DegradedNsPerMsg is UnicastNsPerMsg with the lossy-wan scenario's rules
// armed on both endpoints (3 % loss, 2 s jitter): the send path of a
// campaign cell's fault window. A round still delivers one message; the
// sends lost on the way are part of its cost.
func (s Set) DegradedNsPerMsg(depth int) float64 {
	return s.unicast(depth, func(net *simnet.Network) {
		for id := simnet.NodeID(0); id < 2; id++ {
			net.SetLoss(id, 0.03)
			net.SetJitter(id, 2*time.Second)
		}
	})
}

// BroadcastNsPerDest is the cost per destination of Context.Broadcast of one
// payload to the n−1 other nodes, run to delivery. Successive senders keep
// about depth deliveries in flight, the heap depth of a mesh run at that
// size.
func (s Set) BroadcastNsPerDest(n, depth int) float64 {
	sched, _, sinks, ids := s.network(n)
	inFlight := depth / (n - 1)
	if inFlight < 1 {
		inFlight = 1
	}
	from := 0
	ns := s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			for j := 0; j < inFlight; j++ {
				sinks[from%n].ctx.Broadcast(ids, payload)
				from++
			}
			for sched.Step() {
			}
		}
	})
	return ns / float64(inFlight*(n-1))
}

// TopologyBuildMs is the cost of overlay.New for n validators.
func (s Set) TopologyBuildMs(cfg overlay.Config, n int) (float64, error) {
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	if _, err := overlay.New(cfg, s.Seed, ids); err != nil {
		return 0, err
	}
	ns := s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			_, _ = overlay.New(cfg, s.Seed, ids) // cannot fail: same inputs succeeded above
		}
	})
	return ns / 1e6, nil
}

// hop is one envelope in flight between two routers of the route probe.
type hop struct {
	from, to simnet.NodeID
	payload  any
}

// stubSender is the overlay.Sender the route probe hands to routers: sends
// go to an in-memory queue, there is no network underneath.
type stubSender struct {
	id    simnet.NodeID
	now   time.Duration
	queue *[]hop
}

func (s *stubSender) ID() simnet.NodeID  { return s.id }
func (s *stubSender) Now() time.Duration { return s.now }
func (s *stubSender) Send(to simnet.NodeID, p any) {
	*s.queue = append(*s.queue, hop{from: s.id, to: to, payload: p})
}

// RouteNsPerMsg is the router's cost per envelope handled: one round is one
// broadcast disseminated to all n routers through Router.Broadcast and
// Router.Unwrap, duplicates included, against a stub Sender.
func (s Set) RouteNsPerMsg(cfg overlay.Config, n int) (float64, error) {
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	topo, err := overlay.New(cfg, s.Seed, ids)
	if err != nil {
		return 0, err
	}
	routers := make([]*overlay.Router, n)
	for i := range routers {
		routers[i] = overlay.NewRouter(topo, ids[i])
	}
	var queue []hop
	sender := &stubSender{queue: &queue}
	origin, handled := 0, 0
	ns := s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			// A virtual second between broadcasts lets the routers'
			// modelled stall levels drain, as they do between rounds of a
			// run.
			sender.now += time.Second
			sender.id = ids[origin%n]
			origin++
			routers[sender.id].Broadcast(sender, payload)
			handled++
			for head := 0; head < len(queue); head++ {
				h := queue[head]
				sender.id = h.to
				routers[h.to].Unwrap(sender, h.from, h.payload)
				handled++
			}
			queue = queue[:0]
		}
	})
	perRound := float64(handled) / float64(origin)
	return ns / perRound, nil
}

// ExtractUs is the cost of drawing one sortition committee of the given size
// from a uniform stake table of n validators.
func (s Set) ExtractUs(n, size int) float64 {
	table := committee.Uniform(n)
	round := uint64(0)
	ns := s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			round++
			table.Extract(uint64(s.Seed), round, 0, size)
		}
	})
	return ns / 1e3
}

// ScheduleHitNs is the cost of asking the shared committee schedule for a
// committee it has already extracted — what every validator but the first
// pays per (round, step).
func (s Set) ScheduleHitNs(n, size int) float64 {
	sched := committee.NewSchedule(committee.Uniform(n), uint64(s.Seed), size)
	sched.Committee(1, 0)
	return s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			sched.Committee(1, 0)
		}
	})
}

// txs returns count distinct transfers among 64 accounts.
func txs(count int) []chain.Tx {
	out := make([]chain.Tx, count)
	for i := range out {
		out[i] = chain.Tx{
			ID:     chain.MakeTxID(uint32(i%5), uint32(i)),
			From:   chain.Address(i % 64),
			To:     chain.Address((i + 1) % 64),
			Amount: 1,
			Nonce:  uint64(i / 64),
		}
	}
	return out
}

// MempoolNsPerTx is the cost of one transaction through Mempool.Add and
// Mempool.Pop, in blocks of 256.
func (s Set) MempoolNsPerTx() float64 {
	const block = 256
	pool := chain.NewMempool(nil)
	batch := txs(block)
	ns := s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, tx := range batch {
				pool.Add(tx)
			}
			pool.Pop(block)
		}
	})
	return ns / block
}

// LedgerAppendNsPerTx is the cost per transaction of Ledger.Append in blocks
// of 128. A fresh ledger starts every 640 blocks — the 80 thousand
// transactions of one paper-sized run — so the committed-set map is probed
// at the sizes runs reach.
func (s Set) LedgerAppendNsPerTx() float64 {
	const block, perLedger = 128, 640
	var ledger *chain.Ledger
	next := uint32(0)
	batch := txs(block)
	ns := s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			if ledger == nil || ledger.Height() == perLedger {
				ledger = chain.NewLedger()
				for a := chain.Address(0); a < 64; a++ {
					ledger.Mint(a, 1<<40)
				}
			}
			for j := range batch {
				batch[j].ID = chain.MakeTxID(0, next)
				next++
			}
			b := chain.Block{Height: ledger.Height(), Parent: ledger.TipHash(), Txs: batch}
			if _, err := ledger.Append(b); err != nil {
				panic("probes: ledger append on a well-formed chain: " + err.Error())
			}
		}
	})
	return ns / block
}

// RecordNsPerOp is the cost of one Recorder sample, alternating Count and
// Observe. A fresh recorder starts every 160 thousand samples, what the
// commits of one paper-sized run record.
func (s Set) RecordNsPerOp() float64 {
	const perRecorder = 160_000
	var rec *metrics.Recorder
	count := perRecorder
	return s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			if count == perRecorder {
				rec = metrics.NewRecorder(0)
				count = 0
			}
			at := time.Duration(count) * time.Millisecond
			if count%2 == 0 {
				rec.Count(at, "tx_committed", 1)
			} else {
				rec.Observe(at, "commit_latency", 0.5)
			}
			count++
		}
	})
}

// CompileUs is the cost of validating and compiling one scenario spec onto
// a deployment, averaged over specs — what every scenario cell of a campaign
// pays at least twice (build and score).
func (s Set) CompileUs(specs []scenario.Spec, validators, clients int) (float64, error) {
	compile := func() error {
		for _, spec := range specs {
			built, err := spec.Build()
			if err != nil {
				return err
			}
			// A scheduler of its own per compile, as core does: the
			// random selectors draw from streams no run shares.
			sched := sim.New(s.Seed)
			_, err = built.Compile(scenario.Env{
				Validators: validators,
				Clients:    clients,
				RNG:        func(name string) *rand.Rand { return sched.RNG("scenario/" + name) },
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := compile(); err != nil {
		return 0, err
	}
	ns := s.measure(func(rounds int) {
		for i := 0; i < rounds; i++ {
			_ = compile() // cannot fail: same inputs succeeded above
		}
	})
	return ns / 1e3 / float64(len(specs)), nil
}
