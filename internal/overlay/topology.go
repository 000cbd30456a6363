package overlay

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"stabl/internal/simnet"
)

// maxHeight is the broadcast height of an origin: it admits every bucket, so
// the first hop covers the whole key space. Kadcast keys are 64-bit.
const maxHeight = 64

// bucketIndex is the kadcast bucket two keys keep each other in: their most
// significant differing bit. It is symmetric, so a relay ceiling need not
// travel with an envelope (see Envelope). Equal keys give -1.
func bucketIndex(a, b uint64) int { return bits.Len64(a^b) - 1 }

// BucketView is one kadcast distance bucket as seen by one node: the
// BucketK closest members by XOR distance, ascending.
type BucketView struct {
	// Index is the bucket number: the most significant differing key bit
	// between the owner and every member.
	Index int
	// Peers holds the view members, closest first.
	Peers []simnet.NodeID
}

// Topology is an immutable overlay graph derived purely from
// (seed, nodeIDs). It is shared read-only by every node's Router, so it is
// safe for concurrent use by the parallel kernel.
type Topology struct {
	cfg Config
	ids []simnet.NodeID
	// The per-node tables are indexed by node id, like simnet's own.
	// neighbors is the symmetric closure of the overlay edges, sorted per
	// node: the peers a node may exchange any validator traffic with
	// (relays out, replies and sync pulls back in).
	neighbors [][]simnet.NodeID
	// views holds each node's kadcast bucket views, highest bucket first
	// (nil for flood topologies).
	views [][]BucketView
	// keys holds the kadcast key per node (nil for flood topologies).
	keys []uint64
}

// New derives the overlay graph for the given sorted-or-not id set. The same
// (cfg, seed, ids) always yields the same adjacency, independent of input
// order, process or worker count.
func New(cfg Config, seed int64, ids []simnet.NodeID) (*Topology, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("overlay: New called without a topology (valid: %v)", Kinds())
	}
	if len(ids) < 2 {
		return nil, fmt.Errorf("overlay: need at least 2 nodes, got %d", len(ids))
	}
	sorted := append([]simnet.NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if sorted[0] < 0 {
		return nil, fmt.Errorf("overlay: negative node id %v (ids key dense tables, as in simnet)", sorted[0])
	}
	if last := sorted[len(sorted)-1]; last >= 1<<originBits {
		return nil, fmt.Errorf("overlay: node id %v is past the bound 2^%d (duplicate-suppression keys hold the origin in %d bits)", last, originBits, originBits)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("overlay: duplicate node id %v", sorted[i])
		}
	}
	t := &Topology{cfg: cfg, ids: sorted}
	switch cfg.Topology {
	case KindKadcast:
		t.buildKadcast(seed)
	case KindRing:
		t.buildRing()
	case KindRegular:
		t.buildRegular(seed)
	}
	return t, nil
}

// Kind returns the topology name.
func (t *Topology) Kind() string { return t.cfg.Topology }

// Tuning returns the defaulted configuration the topology was built with.
func (t *Topology) Tuning() Config { return t.cfg }

// Nodes returns the member ids, ascending. Callers must not mutate.
func (t *Topology) Nodes() []simnet.NodeID { return t.ids }

// Neighbors returns the symmetric overlay neighborhood of id, ascending.
// Callers must not mutate. Unknown ids have no neighbors.
func (t *Topology) Neighbors(id simnet.NodeID) []simnet.NodeID { return byID(t.neighbors, id) }

// Views returns id's kadcast bucket views, highest bucket first (nil for
// flood topologies). Callers must not mutate.
func (t *Topology) Views(id simnet.NodeID) []BucketView { return byID(t.views, id) }

// byID returns id's entry of an id-indexed table: nil for ids past it.
func byID[E any](table [][]E, id simnet.NodeID) []E {
	if uint(id) < uint(len(table)) {
		return table[id]
	}
	return nil
}

// key returns id's kadcast key: zero for ids past the table, which is all of
// them on flood topologies.
func (t *Topology) key(id simnet.NodeID) uint64 {
	if uint(id) < uint(len(t.keys)) {
		return t.keys[id]
	}
	return 0
}

// Edges visits every undirected overlay edge (a < b) in ascending order.
func (t *Topology) Edges(visit func(a, b simnet.NodeID)) {
	for _, a := range t.ids {
		for _, b := range t.neighbors[a] {
			if a < b {
				visit(a, b)
			}
		}
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mix used for
// kadcast key derivation and delegate rotation. Pure function, no state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// buildKadcast assigns every node a seed-derived 64-bit key and gives each
// node, per XOR-distance bucket, a view of the BucketK closest members.
// Coverage under truncation stays exact: a node's buckets below index i
// partition the key subtree it was delegated, each nonempty sub-subtree has
// a nonempty view, and one delegate per view covers it by induction.
//
// The views come from the sorted keys, not from a scan of every member per
// node: the keys that agree with x's above bit b are one run, bucket b is
// the half of it whose bit b differs from x's, and closest descends that
// half's implicit trie. Keys are distinct, so distances are too, and the
// views are exactly the BucketK closest.
func (t *Topology) buildKadcast(seed int64) {
	n := len(t.ids)
	keys := make([]uint64, t.ids[n-1]+1)
	used := make(map[uint64]bool, n)
	members := make([]member, n)
	for i, id := range t.ids { // sorted order: collision re-salting is deterministic
		k := splitmix64(uint64(seed) ^ uint64(id)*0x9E3779B97F4A7C15)
		for used[k] {
			k = splitmix64(k)
		}
		used[k] = true
		keys[id] = k
		members[i] = member{key: k, id: id}
	}
	t.keys = keys
	slices.SortFunc(members, func(a, b member) int { return cmp.Compare(a.key, b.key) })

	views := make([][]BucketView, len(keys))
	adj := make([][]simnet.NodeID, len(keys))
	var vs []BucketView
	for _, x := range t.ids {
		vs = vs[:0]
		run := members // the keys that agree with x's above bit b
		for b := maxHeight - 1; len(run) > 1; b-- {
			var bucket []member
			run, bucket = split(run, b, keys[x])
			if len(bucket) == 0 {
				continue
			}
			k := min(len(bucket), t.cfg.BucketK)
			peers := closest(make([]simnet.NodeID, 0, k), bucket, b-1, keys[x], k)
			vs = append(vs, BucketView{Index: b, Peers: peers})
			for _, y := range peers {
				adj[x] = append(adj[x], y)
				adj[y] = append(adj[y], x)
			}
		}
		views[x] = slices.Clip(slices.Clone(vs))
	}
	t.views = views
	t.setNeighbors(adj)
}

// member is one node in key order.
type member struct {
	key uint64
	id  simnet.NodeID
}

// split cuts a run of keys that agree above bit b into the half whose bit b
// matches k's and the other half.
func split(run []member, b int, k uint64) (near, far []member) {
	i := sort.Search(len(run), func(i int) bool { return run[i].key>>b&1 == 1 })
	if k>>b&1 == 1 {
		return run[i:], run[:i]
	}
	return run[:i], run[i:]
}

// closest appends the ids of a run of keys that agree above bit b to out in
// ascending XOR distance from k, until out holds want: the near half of the
// run is nearer than the whole far half, so it goes first, recursively.
func closest(out []simnet.NodeID, run []member, b int, k uint64, want int) []simnet.NodeID {
	for len(run) > 0 && len(out) < want {
		if len(run) == 1 {
			return append(out, run[0].id)
		}
		near, far := split(run, b, k)
		out = closest(out, near, b-1, k, want)
		run, b = far, b-1
	}
	return out
}

// buildRing connects the sorted ids in a cycle plus power-of-two shortcut
// chords: offsets 1, 2, 4, ... 2^Fanout. Purely positional — the seed does
// not participate.
func (t *Topology) buildRing() {
	n := len(t.ids)
	adj := make([][]simnet.NodeID, t.ids[n-1]+1)
	for i, x := range t.ids {
		off := 1
		for s := 0; s <= t.cfg.Fanout && off < n; s++ {
			y := t.ids[(i+off)%n]
			adj[x] = append(adj[x], y)
			adj[y] = append(adj[y], x)
			off *= 2
		}
	}
	t.setNeighbors(adj)
}

// buildRegular unions ⌈Fanout/2⌉ seed-derived Hamiltonian cycles, giving an
// (approximately) Fanout-regular connected graph. The permutations come from
// a local generator derived from the topology seed at construction time —
// never from a scheduler stream — so building the overlay perturbs no
// experiment RNG.
func (t *Topology) buildRegular(seed int64) {
	n := len(t.ids)
	cycles := (t.cfg.Fanout + 1) / 2
	if cycles < 1 {
		cycles = 1
	}
	adj := make([][]simnet.NodeID, t.ids[n-1]+1)
	for c := 0; c < cycles; c++ {
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ uint64(c+1)*0xD1342543DE82EF95))))
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			x := t.ids[perm[i]]
			y := t.ids[perm[(i+1)%n]]
			adj[x] = append(adj[x], y)
			adj[y] = append(adj[y], x)
		}
	}
	t.setNeighbors(adj)
}

// setNeighbors freezes id-indexed adjacency lists — every edge appended both
// ways, duplicates allowed — into sorted, duplicate-free neighbor slices of
// exact length.
func (t *Topology) setNeighbors(adj [][]simnet.NodeID) {
	for _, x := range t.ids {
		slices.Sort(adj[x])
		adj[x] = slices.Clip(slices.Clone(slices.Compact(adj[x])))
	}
	t.neighbors = adj
}
