package overlay

import (
	"math/bits"

	"stabl/internal/simnet"
)

// dupeKey identifies one broadcast in one word: the origin in the top
// originBits bits, its per-origin sequence number in the low seqBits.
// Sequence numbers are persistent across restarts, so a rebooted origin
// never reuses a key its peers may still hold.
type dupeKey uint64

const originBits, seqBits = 24, 64 - 24 // New rejects node ids past 2^24

func newDupeKey(origin simnet.NodeID, seq uint64) dupeKey {
	return dupeKey(uint64(origin)<<seqBits | seq)
}

func (k dupeKey) origin() simnet.NodeID { return simnet.NodeID(k >> seqBits) }
func (k dupeKey) seq() uint64           { return uint64(k) & (1<<seqBits - 1) }

// hash is multiplicative hashing of origin and seq folded into one word; the
// table takes the home slot from its top bits.
func (k dupeKey) hash() uint64 {
	return (k.seq() + uint64(k.origin())*0xC2B2AE3D27D4EB4F) * 0x9E3779B97F4A7C15
}

// dupemap is a bounded duplicate-suppression cache: a set plus a FIFO ring.
// When the ring is full the oldest entry is evicted, so memory stays O(cap)
// no matter how long the run is.
//
// The set is one open-addressed table of keys, probed linearly from the
// key's home slot and kept free of tombstones by backward-shift deletion. It
// grows with the ring, never past the size cap entries need. A free slot
// holds the zero key, whose own membership is kept beside the table, so
// every key value is an ordinary member and a probe touches the table only.
type dupemap struct {
	cap   int
	slots []dupeKey // len is zero or a power of two; the zero key: free
	zero  bool      // the zero key is a member
	shift uint      // 64 - log2(len(slots)): hash -> home slot
	ring  []dupeKey // the live keys, oldest at head once full
	head  int
}

const dupeMinSlots = 16

func newDupemap(capacity int) dupemap {
	if capacity < 1 {
		capacity = 1
	}
	return dupemap{cap: capacity}
}

func (d *dupemap) home(k dupeKey) int { return int(k.hash() >> d.shift) }

// find returns the slot of k, which is not the zero key, and true, or the
// free slot that ends k's probe sequence and false. The table always has a
// free slot (see add).
func (d *dupemap) find(k dupeKey) (int, bool) {
	mask := len(d.slots) - 1
	for i := d.home(k); ; i = (i + 1) & mask {
		switch d.slots[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

func (d *dupemap) has(k dupeKey) bool {
	if k == 0 {
		return d.zero
	}
	_, ok := d.find(k)
	return ok
}

// insert places a key the set does not hold.
func (d *dupemap) insert(k dupeKey) {
	if k == 0 {
		d.zero = true
		return
	}
	i, _ := d.find(k)
	d.slots[i] = k
}

// remove deletes a member by backward shift: a later key of the same run
// moves into the hole when the hole lies on its probe path, between its home
// slot and where it sits, so no probe sequence is ever cut by a free slot.
func (d *dupemap) remove(k dupeKey) {
	if k == 0 {
		d.zero = false
		return
	}
	hole, _ := d.find(k)
	mask := len(d.slots) - 1
	for j := (hole + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		if (j-d.home(d.slots[j]))&mask >= (j-hole)&mask {
			d.slots[hole] = d.slots[j]
			hole = j
		}
	}
	d.slots[hole] = 0
}

// add records k, evicting the oldest entry when full. It reports whether k
// was new (i.e. the envelope should be delivered and relayed).
func (d *dupemap) add(k dupeKey) bool {
	// Grow at 5/8 load, before looking: at worst one insertion early, and
	// every probe loop has a free slot to stop at.
	if len(d.ring) >= len(d.slots)/8*5 {
		d.grow()
	}
	if d.has(k) {
		return false
	}
	if len(d.ring) < d.cap {
		d.ring = append(d.ring, k)
	} else {
		d.remove(d.ring[d.head])
		d.ring[d.head] = k
		d.head = (d.head + 1) % d.cap
	}
	d.insert(k)
	return true
}

// grow doubles the table and re-places the ring's keys.
func (d *dupemap) grow() {
	n := max(2*len(d.slots), dupeMinSlots)
	d.slots = make([]dupeKey, n)
	d.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, k := range d.ring {
		d.insert(k)
	}
}

// size returns the number of live entries (for tests and eviction bounds).
func (d *dupemap) size() int { return len(d.ring) }

// reset drops all entries, keeping the capacity. Used on node reboot: the
// cache is volatile state.
func (d *dupemap) reset() {
	clear(d.slots)
	d.zero = false
	d.ring = d.ring[:0]
	d.head = 0
}

// dupeState is the snapshot form of a dupemap: the ring in FIFO order plus
// the head index. The table is rebuilt on restore, so the state is a plain
// value copy with no shared references.
type dupeState struct {
	ring []dupeKey
	head int
}

func (d *dupemap) snapshot() dupeState {
	return dupeState{ring: append([]dupeKey(nil), d.ring...), head: d.head}
}

func (d *dupemap) restore(s dupeState) {
	d.reset()
	for _, k := range s.ring { // at most cap distinct keys: nothing is evicted
		d.add(k)
	}
	d.head = s.head
}
