package overlay

// Differential tests for Router.relay: the same overlay deployments on a real
// simnet.Network, relayed once as flights (*simnet.Context), once as the loop
// of Send every other Sender gets, and once by refRouter — the router this
// one replaced, kept here as the reference: relay ceiling on the wire, one
// Send per pick from inside the pick loop, stall levels in a map, the
// map-and-ring dupemap.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// relayer is the router surface a chain node uses.
type relayer interface {
	Broadcast(s Sender, payload any)
	Unwrap(s Sender, from simnet.NodeID, payload any) (any, bool)
	Reset()
	Stats() Stats
}

var _ relayer = (*Router)(nil)

// refEnvelope is the reference wire format: every hop stamps the bucket it
// relays into.
type refEnvelope struct {
	origin  simnet.NodeID
	seq     uint64
	height  int
	payload any
}

type refRouter struct {
	topo  *Topology
	self  simnet.NodeID
	seq   uint64
	dupe  mapDupemap
	stall map[simnet.NodeID]stallLevel
	stats Stats
}

func newRefRouter(topo *Topology, self simnet.NodeID) *refRouter {
	return &refRouter{topo: topo, self: self, dupe: newMapDupemap(DefaultDupeCap), stall: map[simnet.NodeID]stallLevel{}}
}

func (r *refRouter) Stats() Stats { return r.stats }

func (r *refRouter) Reset() {
	r.dupe.reset()
	r.stall = map[simnet.NodeID]stallLevel{}
}

func (r *refRouter) Broadcast(s Sender, payload any) {
	r.seq++
	r.dupe.add(newDupeKey(r.self, r.seq))
	r.stats.Origins++
	r.stats.OriginSends += r.relay(s, refEnvelope{origin: r.self, seq: r.seq, payload: payload}, maxHeight, r.self)
}

func (r *refRouter) Unwrap(s Sender, from simnet.NodeID, payload any) (any, bool) {
	env, isEnv := payload.(refEnvelope)
	if !isEnv {
		return payload, true
	}
	if !r.dupe.add(newDupeKey(env.origin, env.seq)) {
		r.stats.Duplicates++
		return nil, false
	}
	r.stats.Relayed += r.relay(s, env, env.height, from)
	return env.payload, true
}

func (r *refRouter) relay(s Sender, env refEnvelope, height int, from simnet.NodeID) uint64 {
	now := s.Now()
	var sent uint64
	for _, bv := range r.topo.views[r.self] {
		if bv.Index >= height {
			continue
		}
		offset := int(delegateHash(env.origin, env.seq, bv.Index, r.self) % uint64(len(bv.Peers)))
		picked, candidates := 0, 0
		for i := 0; i < len(bv.Peers) && picked < r.topo.cfg.Fanout; i++ {
			peer := bv.Peers[(offset+i)%len(bv.Peers)]
			if peer == env.origin || peer == from {
				continue
			}
			candidates++
			if r.stalled(peer, now) {
				r.stats.StallSkips++
				continue
			}
			r.charge(peer, now)
			s.Send(peer, refEnvelope{origin: env.origin, seq: env.seq, height: bv.Index, payload: env.payload})
			picked++
		}
		if picked == 0 && candidates > 0 {
			r.stats.StallDrops++
		}
		sent += uint64(picked)
	}
	return sent
}

func (r *refRouter) stalled(peer simnet.NodeID, now time.Duration) bool {
	st, ok := r.stall[peer]
	if !ok {
		return false
	}
	return st.level-r.topo.cfg.DrainRate*(now-st.last).Seconds() >= float64(r.topo.cfg.StallThreshold)
}

func (r *refRouter) charge(peer simnet.NodeID, now time.Duration) {
	st := r.stall[peer]
	if st.last > 0 || st.level > 0 {
		st.level = max(0, st.level-r.topo.cfg.DrainRate*(now-st.last).Seconds())
	}
	st.level++
	st.last = now
	r.stall[peer] = st
}

// sendOnly hides everything of a Context but the Sender methods, as the
// benchmark's probe and the fakes of overlay_test.go do.
type sendOnly struct{ ctx *simnet.Context }

func (s sendOnly) ID() simnet.NodeID                  { return s.ctx.ID() }
func (s sendOnly) Now() time.Duration                 { return s.ctx.Now() }
func (s sendOnly) Send(to simnet.NodeID, payload any) { s.ctx.Send(to, payload) }

// relayMode picks the router and the Sender it is handed.
type relayMode int

const (
	viaContext relayMode = iota // Router on *simnet.Context: relays are flights
	viaSend                     // Router on a Send-only wrapper
	viaRef                      // refRouter
)

// relayArrival is one logged delivery: where it executed in the total event
// order and what the router made of it (-1: a suppressed duplicate).
type relayArrival struct {
	at      time.Duration
	from    simnet.NodeID
	key     sim.EventKey
	payload int
}

// relayNode is a chain node reduced to its overlay use: it broadcasts at
// start-up, unwraps every delivery and answers some fresh ones with a
// broadcast of its own, so peers are charged in bursts.
type relayNode struct {
	id     simnet.NodeID
	sched  *sim.Scheduler
	router relayer
	mode   relayMode
	ctx    *simnet.Context
	sender Sender
	rng    *rand.Rand
	budget int
	sent   int
	log    []relayArrival
}

func (h *relayNode) Start(ctx *simnet.Context) {
	if h.ctx != nil {
		h.router.Reset() // a reboot, as chain.BaseNode.Reset does it
	}
	h.ctx, h.sender = ctx, ctx
	if h.mode != viaContext {
		h.sender = sendOnly{ctx}
	}
	h.rng = ctx.RNG("relay")
	ctx.After(time.Duration(h.rng.Intn(20))*time.Millisecond, h.broadcast)
}

func (h *relayNode) Stop() {}

func (h *relayNode) broadcast() {
	h.sent++
	h.router.Broadcast(h.sender, int(h.id)*1_000_000+h.sent)
}

func (h *relayNode) Deliver(from simnet.NodeID, payload any) {
	key := h.sched.ExecKey(int32(h.id))
	inner, ok := h.router.Unwrap(h.sender, from, payload)
	v := -1
	if ok {
		v = inner.(int)
	}
	h.log = append(h.log, relayArrival{at: h.ctx.Now(), from: from, key: key, payload: v})
	if v > 0 && h.budget > 0 && h.rng.Intn(3) == 0 {
		h.budget--
		h.broadcast()
	}
}

// relayResult is everything two equivalent runs must agree on.
type relayResult struct {
	logs    [][]relayArrival
	net     simnet.Stats
	overlay Stats
	fired   uint64
}

// runRelay builds and runs one deployment: n nodes on a 5–25 ms mesh under
// an overlay with a low stall threshold, a partition opened while the
// start-up broadcasts are still being relayed and healed later, and a
// scripted broadcast during which a third of the nodes are halted — its
// first hop partly delivered — and restarted, dupemap and stall levels gone,
// while its relays still travel. At the end every node sends one direct message: its arrival time is
// the next draw of the sender's latency stream, so equal logs mean equal draw
// counts. workers > 0 runs on the parallel kernel, the last node pinned to
// the root queue.
func runRelay(t *testing.T, seed int64, n, workers int, mode relayMode) relayResult {
	t.Helper()
	ids := nodeIDs(n)
	topo, err := New(Config{Topology: KindKadcast, BucketK: 3, StallThreshold: 3, DrainRate: 40}, seed, ids)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.New(seed)
	net := simnet.New(sched, simnet.Config{})
	hs := make([]*relayNode, n)
	for i, id := range ids {
		var r relayer = NewRouter(topo, id)
		if mode == viaRef {
			r = newRefRouter(topo, id)
		}
		hs[i] = &relayNode{id: id, sched: sched, router: r, mode: mode, budget: 6}
		net.AddNode(id, hs[i])
	}
	if workers > 0 {
		table := make([]int32, n) // node -> queue
		for i := range table[:n-1] {
			table[i] = int32(1 + i%workers)
		}
		sched.EnableParallel(table, workers, net.Lookahead())
		net.EnableParallel(table, workers)
	}

	rule := 0
	sched.At(18*time.Millisecond, func() { rule = net.Partition(ids[:n/3], ids[n/3:]) })
	sched.At(150*time.Millisecond, func() { net.Heal(rule) })

	const t0 = 400 * time.Millisecond
	origin := ids[n/2]
	var victims []simnet.NodeID // a third of the network, some of the origin's picks among them
	for i, id := range ids {
		if i%3 == 0 && id != origin {
			victims = append(victims, id)
		}
	}
	sched.At(t0, func() { hs[origin].broadcast() })
	sched.At(t0+9*time.Millisecond, func() {
		for _, id := range victims {
			net.Halt(id)
		}
	})
	sched.At(t0+30*time.Millisecond, func() {
		for _, id := range victims {
			net.Restart(id)
		}
	})
	for i := 0; i < 6; i++ {
		id := ids[(i*7+3)%n]
		sched.At(t0+time.Duration(10+i*8)*time.Millisecond, func() { // four of them while the victims are down
			if net.IsUp(id) {
				hs[id].broadcast()
			}
		})
	}
	const end = 900 * time.Millisecond
	sched.At(end, func() {
		for i, h := range hs {
			h.ctx.Send(ids[(i+1)%n], -2)
		}
	})
	net.StartAll()
	for sched.Now() < end+100*time.Millisecond {
		sched.RunUntil(sched.Now() + 100*time.Millisecond)
	}

	res := relayResult{net: net.Stats(), fired: sched.Fired()}
	for _, h := range hs {
		res.logs = append(res.logs, h.log)
		res.overlay.Add(h.router.Stats())
	}
	return res
}

func diffRelay(t *testing.T, label string, want, got relayResult) {
	t.Helper()
	for i := range want.logs {
		w, g := want.logs[i], got.logs[i]
		for j := 0; j < len(w) && j < len(g); j++ {
			if w[j] != g[j] {
				t.Fatalf("%s: node %d delivery %d: want %+v, got %+v", label, i, j, w[j], g[j])
			}
		}
		if len(w) != len(g) {
			t.Fatalf("%s: node %d got %d deliveries, want %d", label, i, len(g), len(w))
		}
	}
	if want.net != got.net {
		t.Fatalf("%s: network stats\nwant %+v\n got %+v", label, want.net, got.net)
	}
	if want.overlay != got.overlay {
		t.Fatalf("%s: overlay stats\nwant %+v\n got %+v", label, want.overlay, got.overlay)
	}
	if want.fired != got.fired {
		t.Fatalf("%s: fired %d events, want %d", label, got.fired, want.fired)
	}
}

// TestRelayEqualsSendLoop holds the router to the one it replaced: relays
// handed to Context.Broadcast as one pick list, and the Send loop over the
// same list, produce the reference's per-node delivery trace (execution keys
// included), network and overlay counters, event count and latency draws, on
// the sequential kernel and on two parallel queues.
func TestRelayEqualsSendLoop(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		n := 24 + 8*int(seed)
		want := runRelay(t, seed, n, 0, viaRef)
		for _, workers := range []int{0, 2} {
			for _, mode := range []relayMode{viaContext, viaSend} {
				label := fmt.Sprintf("seed %d workers %d mode %d", seed, workers, mode)
				diffRelay(t, label, want, runRelay(t, seed, n, workers, mode))
			}
		}
		// The deployment must reach what it is there to compare.
		ov, nt := want.overlay, want.net
		if ov.Relayed == 0 || ov.Duplicates == 0 || ov.StallSkips == 0 || ov.StallDrops == 0 ||
			nt.DroppedPartition == 0 || nt.DroppedNodeDown == 0 || nt.DroppedInFlight == 0 {
			t.Fatalf("seed %d left a path unexercised: %+v %+v", seed, ov, nt)
		}
	}
}

// TestBucketIndexIsSymmetric is what lets the envelope travel without its
// relay ceiling: for every node x and every peer y in x's views, the bucket
// y computes for a sender x is the bucket x keeps y in.
func TestBucketIndexIsSymmetric(t *testing.T) {
	for _, n := range []int{2, 3, 16, 100, 257} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, k := range []int{1, 8} {
				topo, err := New(Config{Topology: KindKadcast, BucketK: k}, seed, nodeIDs(n))
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range topo.Nodes() {
					members, inView := 0, map[simnet.NodeID]bool{}
					for _, bv := range topo.Views(x) {
						members += len(bv.Peers)
						for _, y := range bv.Peers {
							if inView[y] {
								t.Fatalf("n=%d seed=%d k=%d: %v keeps %v in two buckets", n, seed, k, x, y)
							}
							inView[y] = true
							if got := bucketIndex(topo.keys[y], topo.keys[x]); got != bv.Index {
								t.Fatalf("n=%d seed=%d k=%d: %v keeps %v in bucket %d, %v computes %d for it",
									n, seed, k, x, y, bv.Index, y, got)
							}
						}
					}
					// One stall level per view member, a member in one view only.
					if r := NewRouter(topo, x); len(r.stall) != members {
						t.Fatalf("n=%d seed=%d k=%d: router of %v holds %d stall levels for %d view members", n, seed, k, x, len(r.stall), members)
					}
				}
			}
		}
	}
}
