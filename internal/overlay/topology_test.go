package overlay

// The kadcast builder against the scan it replaced: every node's views and
// the symmetric closure of their edges, recomputed by comparing each node
// with every other.

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stabl/internal/simnet"
)

// scanKadcast is the O(n²) reference: for each node it offers every other
// member to its bucket, keeping the BucketK closest in distance order, and
// closes the view edges over a map of sets.
func scanKadcast(t *Topology) (map[simnet.NodeID][]BucketView, map[simnet.NodeID][]simnet.NodeID) {
	type memb struct {
		id   simnet.NodeID
		dist uint64
	}
	views := map[simnet.NodeID][]BucketView{}
	adj := map[simnet.NodeID]map[simnet.NodeID]bool{}
	for _, x := range t.ids {
		adj[x] = map[simnet.NodeID]bool{}
	}
	for _, x := range t.ids {
		var buckets [maxHeight][]memb
		for _, y := range t.ids {
			if y == x {
				continue
			}
			d := t.keys[x] ^ t.keys[y]
			b := bucketIndex(t.keys[x], t.keys[y])
			bk := buckets[b]
			i := sort.Search(len(bk), func(i int) bool { return bk[i].dist > d })
			bk = append(bk, memb{})
			copy(bk[i+1:], bk[i:])
			bk[i] = memb{id: y, dist: d}
			buckets[b] = bk[:min(len(bk), t.cfg.BucketK)]
		}
		for b := maxHeight - 1; b >= 0; b-- {
			if len(buckets[b]) == 0 {
				continue
			}
			peers := make([]simnet.NodeID, len(buckets[b]))
			for i, m := range buckets[b] {
				peers[i] = m.id
				adj[x][m.id], adj[m.id][x] = true, true
			}
			views[x] = append(views[x], BucketView{Index: b, Peers: peers})
		}
	}
	neighbors := map[simnet.NodeID][]simnet.NodeID{}
	for x, set := range adj {
		ns := []simnet.NodeID{}
		for y := range set {
			ns = append(ns, y)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		neighbors[x] = ns
	}
	return views, neighbors
}

// checkKadcastViews builds the topology over ids and holds every node's
// views and neighbors to scanKadcast's, and each table to its exact length.
func checkKadcastViews(t *testing.T, seed int64, k int, ids []simnet.NodeID) {
	t.Helper()
	topo, err := New(Config{Topology: KindKadcast, BucketK: k}, seed, ids)
	if err != nil {
		t.Fatal(err)
	}
	views, neighbors := scanKadcast(topo)
	for _, x := range ids {
		got := topo.Views(x)
		if !reflect.DeepEqual(got, views[x]) {
			t.Fatalf("seed %d k %d n %d: views of %v\n got %v\nwant %v", seed, k, len(ids), x, got, views[x])
		}
		if ns := topo.Neighbors(x); !reflect.DeepEqual(ns, neighbors[x]) || cap(ns) != len(ns) {
			t.Fatalf("seed %d k %d n %d: neighbors of %v\n got %v (cap %d)\nwant %v", seed, k, len(ids), x, ns, cap(ns), neighbors[x])
		}
		if cap(got) != len(got) {
			t.Fatalf("seed %d k %d: %v holds %d views in %d slots", seed, k, x, len(got), cap(got))
		}
		for _, v := range got {
			if cap(v.Peers) != len(v.Peers) {
				t.Fatalf("seed %d k %d: %v's bucket %d holds %d peers in %d slots", seed, k, x, v.Index, len(v.Peers), cap(v.Peers))
			}
		}
	}
}

func TestKadcastViewsMatchScan(t *testing.T) {
	for _, n := range []int{2, 3, 17, 300} {
		for _, k := range []int{1, 3, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				ids := nodeIDs(n)
				rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				checkKadcastViews(t, seed, k, ids)
			}
		}
	}
}

// FuzzKadcastViews reads an id set from pairs of bytes (duplicates dropped,
// input order kept, at most 300), a bucket size from 1 to 8 and any seed.
func FuzzKadcastViews(f *testing.F) {
	dense := make([]byte, 2*300)
	for i, p := range rand.New(rand.NewSource(1)).Perm(300) {
		binary.BigEndian.PutUint16(dense[2*i:], uint16(p))
	}
	f.Add(int64(42), uint8(7), dense)
	f.Add(int64(-3), uint8(0), []byte{0, 9, 0, 1})
	f.Add(int64(7), uint8(2), []byte{255, 255, 0, 0, 1, 0, 0, 200, 17, 17, 0, 3})
	f.Fuzz(func(t *testing.T, seed int64, k uint8, raw []byte) {
		var ids []simnet.NodeID
		seen := map[simnet.NodeID]bool{}
		for ; len(raw) >= 2 && len(ids) < 300; raw = raw[2:] {
			id := simnet.NodeID(binary.BigEndian.Uint16(raw))
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		if len(ids) < 2 {
			t.Skip("fewer than two nodes")
		}
		checkKadcastViews(t, seed, 1+int(k%8), ids)
	})
}
