package overlay

import (
	"reflect"
	"testing"
	"time"

	"stabl/internal/simnet"
)

func nodeIDs(n int) []simnet.NodeID {
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	return ids
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k)
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %q, %v", k, got, err)
		}
	}
	if _, err := ParseKind("smallworld"); err == nil {
		t.Fatal("ParseKind accepted an unknown topology")
	} else {
		for _, k := range Kinds() {
			if !contains(err.Error(), k) {
				t.Errorf("unknown-topology error %q does not enumerate %q", err, k)
			}
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
	if err := (Config{Fanout: 3}).Validate(); err == nil {
		t.Error("tuning without topology accepted")
	}
	if err := (Config{Topology: "mesh5"}).Validate(); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := (Config{Topology: KindKadcast, Fanout: -1}).Validate(); err == nil {
		t.Error("negative fanout accepted")
	}
}

// TestNewRejectsBadIDSets: ids key dense tables (the kadcast key table, like
// simnet's own), so a negative one is an error, as are duplicates, sets too
// small to relay in and ids past the 24 bits a dupemap key holds.
func TestNewRejectsBadIDSets(t *testing.T) {
	for _, ids := range [][]simnet.NodeID{nil, {3}, {1, 2, 1}, {0, -1, 2}, {0, 1 << 24}} {
		for _, kind := range Kinds() {
			if _, err := New(Config{Topology: kind}, 42, ids); err == nil {
				t.Errorf("%s: id set %v accepted", kind, ids)
			}
		}
	}
	_, err := New(Config{Topology: KindKadcast}, 42, []simnet.NodeID{1<<24 - 1, 1 << 24})
	if err == nil || !contains(err.Error(), "2^24") {
		t.Errorf("id past the bound: error %v does not name 2^24", err)
	}
}

// TestBroadcastSequenceBound: an origin's sequence numbers fill the 40 bits
// of its dupemap keys, and the broadcast past them panics.
func TestBroadcastSequenceBound(t *testing.T) {
	topo, err := New(Config{Topology: KindKadcast}, 42, nodeIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, 3)
	r.seq = 1<<40 - 2
	r.Broadcast(&fakeSender{id: 3}, "last")
	if k := newDupeKey(3, r.seq); k.origin() != 3 || k.seq() != 1<<40-1 || !r.dupe.has(k) {
		t.Fatalf("key %x: origin %v seq %d", uint64(k), k.origin(), k.seq())
	}
	defer func() {
		if recover() == nil {
			t.Error("broadcast past 2^40 sequence numbers did not panic")
		}
	}()
	r.Broadcast(&fakeSender{id: 3}, "one too many")
}

// TestTopologyDeterminism: same (cfg, seed, ids) must produce identical
// adjacency and bucket views across constructions, independent of the input
// id order; a different seed must move edges.
func TestTopologyDeterminism(t *testing.T) {
	ids := nodeIDs(64)
	shuffled := append([]simnet.NodeID(nil), ids...)
	for i := range shuffled { // fixed deterministic scramble
		j := (i*37 + 11) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	cfg := Config{Topology: KindKadcast}
	a, err := New(cfg, 42, ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, 42, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !reflect.DeepEqual(a.Neighbors(id), b.Neighbors(id)) || !reflect.DeepEqual(a.Views(id), b.Views(id)) {
			t.Fatalf("adjacency of %v differs across constructions", id)
		}
		ns := a.Neighbors(id)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("neighbors of %v not strictly ascending: %v", id, ns)
			}
		}
		for _, p := range ns {
			if !containsID(a.Neighbors(p), id) {
				t.Fatalf("adjacency not symmetric: %v -> %v", id, p)
			}
		}
	}
	c, err := New(cfg, 43, ids)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, id := range ids {
		if !reflect.DeepEqual(a.Neighbors(id), c.Neighbors(id)) {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("seed change left every edge in place")
	}
}

func containsID(ids []simnet.NodeID, id simnet.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// fakeSender records sends for in-memory relay simulation.
type fakeSender struct {
	id   simnet.NodeID
	now  time.Duration
	sent []fakeMsg
}

type fakeMsg struct {
	to      simnet.NodeID
	payload any
}

func (f *fakeSender) ID() simnet.NodeID  { return f.id }
func (f *fakeSender) Now() time.Duration { return f.now }
func (f *fakeSender) Send(to simnet.NodeID, payload any) {
	f.sent = append(f.sent, fakeMsg{to, payload})
}

// deliverAll runs a broadcast from origin to quiescence over in-memory
// routers and returns which nodes received the payload (origin included)
// plus the total number of envelope sends.
func deliverAll(t *testing.T, topo *Topology, routers map[simnet.NodeID]*Router, origin simnet.NodeID) (received map[simnet.NodeID]bool, sends int) {
	t.Helper()
	received = map[simnet.NodeID]bool{origin: true}
	senders := map[simnet.NodeID]*fakeSender{}
	for _, id := range topo.Nodes() {
		senders[id] = &fakeSender{id: id}
	}
	routers[origin].Broadcast(senders[origin], "payload")
	type inflight struct {
		from simnet.NodeID
		msg  fakeMsg
	}
	var queue []inflight
	drain := func(id simnet.NodeID) {
		s := senders[id]
		for _, m := range s.sent {
			queue = append(queue, inflight{from: id, msg: m})
		}
		s.sent = nil
	}
	drain(origin)
	for len(queue) > 0 {
		next := queue[0]
		queue = queue[1:]
		sends++
		to := next.msg.to
		inner, ok := routers[to].Unwrap(senders[to], next.from, next.msg.payload)
		if ok {
			if inner != "payload" {
				t.Fatalf("node %v received %v", to, inner)
			}
			received[to] = true
		}
		drain(to)
	}
	return received, sends
}

// TestBroadcastCoverage: a broadcast must reach every node, and the origin
// fanout must be O(Fanout·log n), not O(n).
func TestBroadcastCoverage(t *testing.T) {
	const n = 200
	ids := nodeIDs(n)
	topo, err := New(Config{Topology: KindKadcast}, 42, ids)
	if err != nil {
		t.Fatal(err)
	}
	routers := map[simnet.NodeID]*Router{}
	for _, id := range ids {
		routers[id] = NewRouter(topo, id)
	}
	for _, origin := range []simnet.NodeID{0, 7, n - 1} {
		received, _ := deliverAll(t, topo, routers, origin)
		if len(received) != n {
			t.Errorf("broadcast from %v reached %d of %d nodes", origin, len(received), n)
		}
	}
	st := Stats{}
	for _, id := range ids {
		st.Add(routers[id].Stats())
	}
	// 3 origins at n=200: log2(200) ≈ 7.6 buckets × fanout 4 ≈ 30 sends
	// each; the mesh would pay 199.
	if per := st.SendsPerBroadcast(); per >= n/2 {
		t.Errorf("origin fanout %.1f is O(n), want O(fanout·log n)", per)
	}
}

// TestDupemapEviction: the cache never exceeds its capacity and evicts FIFO.
func TestDupemapEviction(t *testing.T) {
	d := newDupemap(8)
	for i := 0; i < 100; i++ {
		if !d.add(newDupeKey(1, uint64(i))) {
			t.Fatalf("fresh key %d reported duplicate", i)
		}
		if d.size() > 8 {
			t.Fatalf("dupemap grew to %d entries past cap 8", d.size())
		}
	}
	// Entries 92..99 remain; 91 and older were evicted and re-admit.
	if d.add(newDupeKey(1, 99)) {
		t.Error("recent key evicted too early")
	}
	if !d.add(newDupeKey(1, 0)) {
		t.Error("evicted key still reported duplicate")
	}
}

// TestStallSkip: a peer charged past the threshold is skipped
// deterministically and drains back after enough virtual time. Delegate
// rotation spreads an origin's charges over its view, so at n = 4 a peer is
// stalled after one.
func TestStallSkip(t *testing.T) {
	ids := nodeIDs(4)
	topo, err := New(Config{Topology: KindKadcast, Fanout: 1, StallThreshold: 1, DrainRate: 1}, 42, ids)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, 0)
	s := &fakeSender{id: 0}
	for i := 0; i < 5; i++ {
		r.Broadcast(s, i)
	}
	if r.Stats().StallSkips == 0 {
		t.Fatal("no stall skips after 5 instant broadcasts at threshold 1")
	}
	skipsBefore := r.Stats().StallSkips
	s.now = 10 * time.Second // drains everything at 1/s
	r.Broadcast(s, "later")
	if r.Stats().StallSkips != skipsBefore {
		t.Error("drained peers still skipped")
	}
}

// TestRouterSnapshotRoundtrip: Snapshot/Restore must reproduce sequence
// numbers, duplicate suppression and stats exactly.
func TestRouterSnapshotRoundtrip(t *testing.T) {
	ids := nodeIDs(16)
	topo, err := New(Config{Topology: KindKadcast}, 42, ids)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, 3)
	s := &fakeSender{id: 3}
	r.Broadcast(s, "a")
	r.Unwrap(s, 5, Envelope{Origin: 5, Seq: 1, Payload: "b"})
	st := r.Snapshot()
	// Diverge, then restore.
	r.Broadcast(s, "c")
	r.Unwrap(s, 5, Envelope{Origin: 5, Seq: 2, Payload: "d"})
	r.Restore(st)
	if r.seq != 1 {
		t.Errorf("seq = %d after restore, want 1", r.seq)
	}
	if _, ok := r.Unwrap(s, 5, Envelope{Origin: 5, Seq: 1, Payload: "b"}); ok {
		t.Error("restored dupemap forgot a pre-snapshot envelope")
	}
	if _, ok := r.Unwrap(s, 5, Envelope{Origin: 5, Seq: 2, Payload: "d"}); !ok {
		t.Error("restored dupemap remembers a post-snapshot envelope")
	}
	if got := r.Stats(); got.Duplicates != st.stats.Duplicates+1 {
		t.Errorf("stats not restored: %+v vs snapshot %+v", got, st.stats)
	}
}

// TestRouterResetKeepsSeq: reboot clears the dupemap but never rewinds the
// sequence counter — peers may still hold the old keys.
func TestRouterResetKeepsSeq(t *testing.T) {
	ids := nodeIDs(8)
	topo, err := New(Config{Topology: KindKadcast}, 42, ids)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, 0)
	s := &fakeSender{id: 0}
	r.Broadcast(s, "x")
	r.Broadcast(s, "y")
	r.Reset()
	if r.seq != 2 {
		t.Errorf("seq = %d after reset, want 2", r.seq)
	}
	if r.dupe.size() != 0 {
		t.Errorf("dupemap kept %d entries across reset", r.dupe.size())
	}
}
