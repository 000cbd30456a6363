package overlay

import (
	"fmt"
	"math/bits"
	"math/rand"
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
	// neighbors is the symmetric closure of the overlay edges, sorted per
	// node: the peers a node may exchange any validator traffic with
	// (relays out, replies and sync pulls back in).
	neighbors map[simnet.NodeID][]simnet.NodeID
	// views holds each node's kadcast bucket views, highest bucket first
	// (nil for flood topologies).
	views map[simnet.NodeID][]BucketView
	// keys holds the kadcast key per node, indexed by node id like simnet's
	// own tables (nil for flood topologies).
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
func (t *Topology) Neighbors(id simnet.NodeID) []simnet.NodeID { return t.neighbors[id] }

// Views returns id's kadcast bucket views, highest bucket first (nil for
// flood topologies). Callers must not mutate.
func (t *Topology) Views(id simnet.NodeID) []BucketView { return t.views[id] }

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
func (t *Topology) buildKadcast(seed int64) {
	n := len(t.ids)
	keys := make([]uint64, t.ids[n-1]+1)
	used := make(map[uint64]bool, n)
	for _, id := range t.ids { // sorted order: collision re-salting is deterministic
		k := splitmix64(uint64(seed) ^ uint64(id)*0x9E3779B97F4A7C15)
		for used[k] {
			k = splitmix64(k)
		}
		used[k] = true
		keys[id] = k
	}
	t.keys = keys

	type memb struct {
		id   simnet.NodeID
		dist uint64
	}
	views := make(map[simnet.NodeID][]BucketView, n)
	adj := make(map[simnet.NodeID]map[simnet.NodeID]bool, n)
	var buckets [maxHeight][]memb
	for _, x := range t.ids {
		kx := keys[x]
		for b := range buckets {
			buckets[b] = buckets[b][:0]
		}
		for _, y := range t.ids {
			if y == x {
				continue
			}
			d := kx ^ keys[y]
			b := bucketIndex(kx, keys[y])
			bk := buckets[b]
			if len(bk) == t.cfg.BucketK && bk[len(bk)-1].dist <= d {
				continue // farther than the whole view: cheap reject
			}
			i := sort.Search(len(bk), func(i int) bool { return bk[i].dist > d })
			if len(bk) < t.cfg.BucketK {
				bk = append(bk, memb{})
			}
			copy(bk[i+1:], bk[i:])
			bk[i] = memb{id: y, dist: d}
			buckets[b] = bk
		}
		var vs []BucketView
		for b := maxHeight - 1; b >= 0; b-- {
			if len(buckets[b]) == 0 {
				continue
			}
			peers := make([]simnet.NodeID, len(buckets[b]))
			for i, m := range buckets[b] {
				peers[i] = m.id
			}
			vs = append(vs, BucketView{Index: b, Peers: peers})
		}
		views[x] = vs
		for _, v := range vs {
			for _, y := range v.Peers {
				if adj[x] == nil {
					adj[x] = make(map[simnet.NodeID]bool)
				}
				if adj[y] == nil {
					adj[y] = make(map[simnet.NodeID]bool)
				}
				adj[x][y] = true
				adj[y][x] = true
			}
		}
	}
	t.views = views
	t.neighbors = sortAdjacency(t.ids, adj)
}

// buildRing connects the sorted ids in a cycle plus power-of-two shortcut
// chords: offsets 1, 2, 4, ... 2^Fanout. Purely positional — the seed does
// not participate.
func (t *Topology) buildRing() {
	n := len(t.ids)
	adj := make(map[simnet.NodeID]map[simnet.NodeID]bool, n)
	for i, x := range t.ids {
		off := 1
		for s := 0; s <= t.cfg.Fanout; s++ {
			if off >= n {
				break
			}
			y := t.ids[(i+off)%n]
			if y != x {
				if adj[x] == nil {
					adj[x] = make(map[simnet.NodeID]bool)
				}
				if adj[y] == nil {
					adj[y] = make(map[simnet.NodeID]bool)
				}
				adj[x][y] = true
				adj[y][x] = true
			}
			off *= 2
		}
	}
	t.neighbors = sortAdjacency(t.ids, adj)
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
	adj := make(map[simnet.NodeID]map[simnet.NodeID]bool, n)
	for c := 0; c < cycles; c++ {
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ uint64(c+1)*0xD1342543DE82EF95))))
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			x := t.ids[perm[i]]
			y := t.ids[perm[(i+1)%n]]
			if x == y {
				continue
			}
			if adj[x] == nil {
				adj[x] = make(map[simnet.NodeID]bool)
			}
			if adj[y] == nil {
				adj[y] = make(map[simnet.NodeID]bool)
			}
			adj[x][y] = true
			adj[y][x] = true
		}
	}
	t.neighbors = sortAdjacency(t.ids, adj)
}

// sortAdjacency freezes an adjacency-set map into sorted neighbor slices.
// The set maps are iterated in whatever order Go picks — the sort makes the
// result independent of it, and nothing downstream ever ranges a map.
func sortAdjacency(ids []simnet.NodeID, adj map[simnet.NodeID]map[simnet.NodeID]bool) map[simnet.NodeID][]simnet.NodeID {
	out := make(map[simnet.NodeID][]simnet.NodeID, len(ids))
	for _, x := range ids {
		set := adj[x]
		ns := make([]simnet.NodeID, 0, len(set))
		for y := range set {
			ns = append(ns, y)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		out[x] = ns
	}
	return out
}
