package overlay

// Model tests for the flat dupemap: random and fuzzed add/reset/snapshot/
// restore streams, interpreted against the map-and-ring implementation the
// table replaced.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stabl/internal/simnet"
)

// mapDupemap is the oracle: a Go map for membership over the same FIFO ring.
type mapDupemap struct {
	cap  int
	seen map[dupeKey]struct{}
	ring []dupeKey
	head int
}

func newMapDupemap(capacity int) mapDupemap {
	return mapDupemap{cap: max(capacity, 1), seen: map[dupeKey]struct{}{}}
}

func (d *mapDupemap) add(k dupeKey) bool {
	if _, ok := d.seen[k]; ok {
		return false
	}
	if len(d.ring) < d.cap {
		d.ring = append(d.ring, k)
	} else {
		delete(d.seen, d.ring[d.head])
		d.ring[d.head] = k
		d.head = (d.head + 1) % d.cap
	}
	d.seen[k] = struct{}{}
	return true
}

func (d *mapDupemap) reset() {
	clear(d.seen)
	d.ring = d.ring[:0]
	d.head = 0
}

func (d *mapDupemap) snapshot() dupeState {
	return dupeState{ring: slices.Clone(d.ring), head: d.head}
}

func (d *mapDupemap) restore(s dupeState) {
	d.reset()
	d.ring = append(d.ring, s.ring...)
	d.head = s.head
	for _, k := range d.ring {
		d.seen[k] = struct{}{}
	}
}

const dupeUniverse = 256

// dupeHashInverse is K^-1 mod 2^64 for the multiplier K of dupeKey.hash.
var dupeHashInverse = func() uint64 {
	const k = 0x9E3779B97F4A7C15
	inv := uint64(k) // Newton: each step doubles the correct low bits
	for i := 0; i < 6; i++ {
		inv *= 2 - k*inv
	}
	return inv
}()

// universeKey maps an index to a key. The first quarter are the keys a run
// produces, the zero key among them; the second sits at the ends of the
// sequence space; the upper half hash to values that share their top 32
// bits, so they share one home slot at every table size.
func universeKey(i int) dupeKey {
	i %= dupeUniverse
	switch {
	case i < dupeUniverse/4:
		return dupeKey{origin: simnet.NodeID(i % 4), seq: uint64(i / 4)}
	case i < dupeUniverse/2:
		return dupeKey{origin: simnet.NodeID(i % 4), seq: math.MaxUint64 - uint64(i/4)}
	}
	origin := uint64(7)
	return dupeKey{origin: simnet.NodeID(origin), seq: (0xABCD1234<<32|uint64(i))*dupeHashInverse - origin*0xC2B2AE3D27D4EB4F}
}

// dupeModel pairs the table with the oracle, and the checkpoints of one with
// the checkpoints of the other.
type dupeModel struct {
	t      testing.TB
	table  dupemap
	oracle mapDupemap
	saved  [][2]dupeState // table's, oracle's
}

func newDupeModel(t testing.TB, capacity int) *dupeModel {
	return &dupeModel{t: t, table: newDupemap(capacity), oracle: newMapDupemap(capacity)}
}

// run interprets ops, two bytes each. Every add checks its own result; the
// whole universe is compared every few ops and at the end.
func (m *dupeModel) run(ops []byte) {
	for n := 1; len(ops) >= 2; ops, n = ops[2:], n+1 {
		m.step(ops[0], int(ops[1]))
		if n%8 == 0 || len(ops) < 4 {
			m.check()
		}
	}
}

func (m *dupeModel) step(op byte, arg int) {
	switch op % 16 {
	default: // add
		k := universeKey(arg)
		want := m.oracle.add(k)
		if got := m.table.add(k); got != want {
			m.t.Fatalf("add(%+v) = %v, oracle says %v", k, got, want)
		}
	case 12: // reboot
		m.table.reset()
		m.oracle.reset()
	case 13: // checkpoint; the four latest are kept
		m.saved = append(m.saved, [2]dupeState{m.table.snapshot(), m.oracle.snapshot()})
		if len(m.saved) > 4 {
			m.saved = m.saved[1:]
		}
	case 14, 15: // rewind to any kept checkpoint, any number of times
		if len(m.saved) > 0 {
			s := m.saved[arg%len(m.saved)]
			m.table.restore(s[0])
			m.oracle.restore(s[1])
		}
	}
}

func (m *dupeModel) check() {
	t, d, o := m.t, &m.table, &m.oracle
	if !slices.Equal(d.ring, o.ring) || d.head != o.head {
		t.Fatalf("ring %v head %d, oracle %v head %d", d.ring, d.head, o.ring, o.head)
	}
	if d.size() != len(o.seen) || d.size() > d.cap {
		t.Fatalf("size %d, oracle %d, cap %d", d.size(), len(o.seen), d.cap)
	}
	n := len(d.slots)
	if n == 0 {
		if d.size() != 0 {
			t.Fatalf("%d entries without a table", d.size())
		}
		return
	}
	// Load stays under 5/8 and the table within two doublings of what cap
	// entries need: memory is bounded by DupeCap, not by the run.
	if n&(n-1) != 0 || d.size() > n/8*5 || n > max(dupeMinSlots, 4*d.cap) {
		t.Fatalf("table of %d slots holds %d entries at cap %d", n, d.size(), d.cap)
	}
	live := 0
	for _, k := range d.slots {
		if k != (dupeKey{}) {
			live++
		}
	}
	if d.zero {
		live++
	}
	if live != d.size() {
		t.Fatalf("%d keys in the table for %d entries", live, d.size())
	}
	for i := 0; i < dupeUniverse; i++ {
		k := universeKey(i)
		_, want := o.seen[k]
		if got := d.has(k); got != want {
			t.Fatalf("%+v: in table %v, oracle %v", k, got, want)
		}
	}
}

var dupeCaps = []int{1, 2, 8, 64}

func TestDupemapMatchesMapReference(t *testing.T) {
	for _, capacity := range dupeCaps {
		for seed := int64(1); seed <= 4; seed++ {
			ops := make([]byte, 2*4000)
			rand.New(rand.NewSource(seed)).Read(ops)
			m := newDupeModel(t, capacity)
			m.run(ops)
			if capacity == 64 && len(m.table.slots) < 128 {
				t.Fatalf("seed %d: table only grew to %d slots", seed, len(m.table.slots))
			}
		}
	}
}

// TestDupemapCollidingHomes wraps a ring of keys that all share a home slot
// several times around: every eviction backward-shifts one long probe run.
func TestDupemapCollidingHomes(t *testing.T) {
	m := newDupeModel(t, 64)
	for round := 0; round < 4; round++ {
		for i := dupeUniverse / 2; i < dupeUniverse; i++ {
			k := universeKey(i)
			if m.table.slots != nil && m.table.home(k) != m.table.home(universeKey(dupeUniverse/2)) {
				t.Fatalf("key %d does not collide", i)
			}
			m.step(0, i)
			m.check()
		}
	}
}

func FuzzDupemap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 13, 0, 0, 1, 0, 2, 14, 0, 0, 0}) // the zero key, twice; checkpoint; evict it; rewind
	// Wrap the ring with colliding keys, reboot, refill, rewind across the
	// reboot.
	long := []byte{13, 0}
	for i := 0; i < 150; i++ {
		long = append(long, 0, byte(128+i%128))
	}
	long = append(long, 13, 0, 12, 0)
	for i := 0; i < 70; i++ {
		long = append(long, 0, byte(i))
	}
	long = append(long, 15, 1, 0, 3, 15, 0)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2*1000 {
			ops = ops[:2*1000]
		}
		for _, capacity := range dupeCaps {
			newDupeModel(t, capacity).run(ops)
		}
	})
}
