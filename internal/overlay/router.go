package overlay

import (
	"slices"
	"time"

	"stabl/internal/simnet"
)

// Sender is the slice of simnet.Context the router needs: identity, virtual
// time and point-to-point sends. *simnet.Context satisfies it, and on one
// the router multicasts (see relay); tests and probes use in-memory fakes.
type Sender interface {
	ID() simnet.NodeID
	Now() time.Duration
	Send(to simnet.NodeID, payload any)
}

var _ Sender = (*simnet.Context)(nil)

// Envelope wraps an application broadcast travelling over the overlay.
// Direct sends (replies, sync pulls, client traffic) are never enveloped and
// pass through Router.Unwrap untouched.
//
// The envelope carries no relay ceiling. A kadcast bucket index is the top
// differing bit of two keys, which is symmetric: the bucket a sender keeps
// the receiver in is the bucket the receiver keeps the sender in, so relay
// derives the ceiling from who sent it. The envelope is therefore the same
// value at every hop of a broadcast: Broadcast boxes it once and every relay
// forwards the interface it received. It is immutable from then on — routers
// on other partitions of the parallel kernel only read it.
type Envelope struct {
	// Origin is the broadcasting node; Seq its persistent per-origin
	// sequence number. Together they key duplicate suppression.
	Origin simnet.NodeID
	Seq    uint64
	// Payload is the application message.
	Payload any
}

// stallLevel models one peer's outstanding relay queue: a level charged by
// every send and drained at Config.DrainRate per virtual second. Pure
// arithmetic over virtual time, so it replays identically at any worker
// count.
type stallLevel struct {
	level float64
	last  time.Duration
}

// Router is one node's overlay relay endpoint. It is owned by the node's
// event context: all methods run inside that node's (single-threaded) event
// handling, like every other piece of per-node chain state.
type Router struct {
	topo *Topology
	self simnet.NodeID
	// The node's slice of the topology, resolved once: its kadcast key and
	// bucket views (flood topologies: zero and nil) and its neighborhood.
	key       uint64
	views     []BucketView
	neighbors []simnet.NodeID

	seq  uint64 // persistent across restarts
	dupe dupemap
	// stall holds one level per peer this node relays to, in the order
	// relay visits them: view by view, peer by peer (kadcast — a peer sits
	// in exactly one bucket) or neighbor by neighbor (flood).
	stall []stallLevel
	stats Stats
}

// NewRouter creates the relay endpoint for self on the given topology.
func NewRouter(topo *Topology, self simnet.NodeID) *Router {
	r := &Router{
		topo:      topo,
		self:      self,
		key:       topo.key(self),
		views:     topo.Views(self),
		neighbors: topo.Neighbors(self),
		dupe:      newDupemap(topo.cfg.DupeCap),
	}
	peers := len(r.neighbors)
	if topo.views != nil {
		peers = 0
		for _, bv := range r.views {
			peers += len(bv.Peers)
		}
	}
	r.stall = make([]stallLevel, peers)
	return r
}

// Neighbors returns this node's symmetric overlay neighborhood, ascending.
func (r *Router) Neighbors() []simnet.NodeID { return r.neighbors }

// Stats returns the router's cumulative counters.
func (r *Router) Stats() Stats { return r.stats }

// Broadcast originates payload: it is enveloped under a fresh sequence
// number and pushed along the overlay. The local node is considered
// delivered already (chains hand their own copy to themselves), so only
// remote dissemination happens here.
func (r *Router) Broadcast(s Sender, payload any) {
	r.seq++
	if r.seq >= 1<<seqBits {
		panic("overlay: broadcast sequence numbers exhausted (2^40 per origin)")
	}
	id := newDupeKey(r.self, r.seq)
	r.dupe.add(id)
	r.stats.Origins++
	r.stats.OriginSends += r.relay(s, id, Envelope{Origin: r.self, Seq: r.seq, Payload: payload}, r.self)
}

// Unwrap filters one delivered payload. Non-envelope traffic passes through
// untouched. A fresh envelope is relayed onward and its payload returned
// with ok=true; a duplicate is counted and suppressed (ok=false).
func (r *Router) Unwrap(s Sender, from simnet.NodeID, payload any) (inner any, ok bool) {
	env, isEnv := payload.(Envelope)
	if !isEnv {
		return payload, true
	}
	id := newDupeKey(env.Origin, env.Seq)
	if !r.dupe.add(id) {
		r.stats.Duplicates++
		return nil, false
	}
	r.stats.Relayed += r.relay(s, id, payload, from)
	return env.Payload, true
}

// relay forwards broadcast id down the kadcast tree or floods it
// (ring/regular), skipping stalled peers deterministically. It returns the
// number of envelopes sent. env is the broadcast's boxed Envelope, sent as it
// is. from is who handed it to this node — the node itself when it
// originates — and is excluded along with the origin.
//
// The chosen peers go out as one multicast — on a *simnet.Context one
// flight, which Context.Broadcast guarantees to be the messages a loop of
// Send over the same peers would produce; any other Sender gets that loop.
func (r *Router) relay(s Sender, id dupeKey, env any, from simnet.NodeID) uint64 {
	now, origin := s.Now(), id.origin()
	picks := make([]simnet.NodeID, 0, 64) // call-local: stays on the stack
	if r.topo.views != nil {              // kadcast
		// An origin covers every bucket; a relay those strictly below the
		// one it shares with the sender.
		height := maxHeight
		if from != r.self {
			height = bucketIndex(r.key, r.topo.key(from))
		}
		base := 0 // stall index of the view's first peer
		for _, bv := range r.views {
			stall := r.stall[base : base+len(bv.Peers)]
			base += len(bv.Peers)
			if bv.Index >= height {
				continue
			}
			// Delegate rotation is a pure hash of the broadcast identity
			// and the bucket, so repeated broadcasts spread load over the
			// view without drawing from any RNG stream.
			offset := int(delegateHash(origin, id.seq(), bv.Index, r.self) % uint64(len(bv.Peers)))
			picked, candidates := 0, 0
			for i := 0; i < len(bv.Peers) && picked < r.topo.cfg.Fanout; i++ {
				at := (offset + i) % len(bv.Peers)
				peer := bv.Peers[at]
				if peer == origin || peer == from {
					continue
				}
				candidates++
				if r.stalled(&stall[at], now) {
					r.stats.StallSkips++
					continue
				}
				r.charge(&stall[at], now)
				picks = append(picks, peer)
				picked++
			}
			if picked == 0 && candidates > 0 {
				r.stats.StallDrops++
			}
		}
	} else { // flood: every neighbor except the origin and the sender
		for i, peer := range r.neighbors {
			if peer == origin || peer == from {
				continue
			}
			if r.stalled(&r.stall[i], now) {
				r.stats.StallSkips++
				continue
			}
			r.charge(&r.stall[i], now)
			picks = append(picks, peer)
		}
	}
	if ctx, ok := s.(*simnet.Context); ok {
		ctx.Broadcast(picks, env)
	} else {
		for _, peer := range picks {
			s.Send(peer, env)
		}
	}
	return uint64(len(picks))
}

// delegateHash mixes the broadcast identity with the bucket and the relaying
// node into a rotation offset.
func delegateHash(origin simnet.NodeID, seq uint64, bucket int, self simnet.NodeID) uint64 {
	x := uint64(origin)*0x9E3779B97F4A7C15 ^ seq*0xC2B2AE3D27D4EB4F ^ uint64(bucket)*0x165667B19E3779F9 ^ uint64(self)*0x27D4EB2F165667C5
	return splitmix64(x)
}

// stalled reports whether a peer's drained outstanding level is at or above
// the stall threshold.
func (r *Router) stalled(st *stallLevel, now time.Duration) bool {
	lvl := st.level - r.topo.cfg.DrainRate*(now-st.last).Seconds()
	return lvl >= float64(r.topo.cfg.StallThreshold)
}

// charge drains a peer's level to now and adds one outstanding send.
func (r *Router) charge(st *stallLevel, now time.Duration) {
	if st.last > 0 || st.level > 0 {
		st.level -= r.topo.cfg.DrainRate * (now - st.last).Seconds()
		if st.level < 0 {
			st.level = 0
		}
	}
	st.level++
	st.last = now
}

// Reset clears the volatile routing state on node reboot: the dupemap and
// the stall levels. The sequence counter survives — a restarted origin must
// not reuse sequence numbers its peers may still have cached — and the
// cumulative stats keep counting across incarnations.
func (r *Router) Reset() {
	r.dupe.reset()
	clear(r.stall)
}

// State is a value snapshot of a Router for run forking (snapshot.Forkable):
// no references are shared with the live router.
type State struct {
	seq   uint64
	dupe  dupeState
	stall []stallLevel
	stats Stats
}

// Snapshot captures the router state by value.
func (r *Router) Snapshot() State {
	return State{seq: r.seq, dupe: r.dupe.snapshot(), stall: slices.Clone(r.stall), stats: r.stats}
}

// Restore rewinds the router to a snapshot taken by Snapshot.
func (r *Router) Restore(st State) {
	r.seq = st.seq
	r.dupe.restore(st.dupe)
	copy(r.stall, st.stall)
	r.stats = st.stats
}
