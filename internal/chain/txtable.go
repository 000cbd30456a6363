package chain

import "math/bits"

// txTable is a validator's per-transaction state: one open-addressed
// TxID -> packed-state table that the ledger owns and shares with its node's
// mempool and execution pipeline, so "is this pending, decided or committed"
// is a single probe wherever it is asked.
//
// Slots are 16 bytes (id, state, padding), probed linearly from a
// multiplicative-hash home slot. The table never deletes: every transaction a
// validator pools is expected to commit, and a committed entry is kept for
// the run's lifetime (that is the ledger's dedup set), so a slot, once
// claimed, only ever changes state. That keeps probe sequences stable without
// tombstones and lets a checkpoint be one slice copy.
type txTable struct {
	slots []txSlot // len is zero or a power of two
	used  int      // claimed slots
	shift uint     // 64 - log2(len(slots)): hash -> home slot
}

type txSlot struct {
	id    TxID
	state uint32
}

// Packed slot state. txUsed marks a claimed slot (TxID 0 is a valid id, and a
// popped, uncommitted transaction has no other bit set); the remaining 29
// bits hold the committed height plus one, zero meaning "not committed".
const (
	txUsed     uint32 = 1 << 0
	txPooled   uint32 = 1 << 1 // queued in the node's mempool
	txPipeline uint32 = 1 << 2 // in a decided-but-unexecuted block

	txHeightShift = 3
	// maxTxHeight is the highest block height the packed state can record.
	maxTxHeight = 1<<(32-txHeightShift) - 2

	txTableMinSlots = 16
)

// committedHeight unpacks a slot state's committed height.
func committedHeight(state uint32) (int, bool) {
	if h := state >> txHeightShift; h != 0 {
		return int(h) - 1, true
	}
	return 0, false
}

// home returns id's home slot index.
func (t *txTable) home(id TxID) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// state returns id's packed state, zero when the table has never seen it.
func (t *txTable) state(id TxID) uint32 {
	if s := t.find(id); s != nil {
		return *s
	}
	return 0
}

// find returns id's state word, or nil when the table has never seen it.
func (t *txTable) find(id TxID) *uint32 {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.state == 0 {
			return nil
		}
		if s.id == id {
			return &s.state
		}
	}
}

// slot returns id's state word, claiming a slot for it on first sight. The
// pointer is valid until the next slot call (which may grow the table).
func (t *txTable) slot(id TxID) *uint32 {
	// Grow at 5/8 load, before looking: at worst one insertion early, and
	// the probe loop below always has a free slot to stop at.
	if t.used >= len(t.slots)/8*5 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.state == 0 {
			s.id, s.state = id, txUsed
			t.used++
			return &s.state
		}
		if s.id == id {
			return &s.state
		}
	}
}

// clear drops flags from id's state, if the table knows id, and returns the
// state it had before.
func (t *txTable) clear(id TxID, flags uint32) uint32 {
	s := t.find(id)
	if s == nil {
		return 0
	}
	old := *s
	*s = old &^ flags
	return old
}

// sweep drops flags from every entry; a restart uses it to forget the
// volatile bits while the committed heights persist.
func (t *txTable) sweep(flags uint32) {
	for i := range t.slots {
		t.slots[i].state &^= flags
	}
}

func (t *txTable) grow() {
	old := t.slots
	n := 2 * len(old)
	if n < txTableMinSlots {
		n = txTableMinSlots
	}
	t.slots = make([]txSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s.state == 0 {
			continue
		}
		i := t.home(s.id)
		for t.slots[i].state != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
