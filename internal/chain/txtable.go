package chain

// txTable is a validator's per-transaction state: one packed state word per
// TxID that the ledger owns and shares with its node's mempool and execution
// pipeline, so "is this pending, decided, committed, or awaited by a client"
// is one array read wherever it is asked.
//
// The table is indexed by position, not probed: a TxID is (client, sequence),
// both dense by contract (see TxID), so client c's row holds its sequences.
// A row is 8 bytes: until a client's second sequence, one inline cell named
// by that sequence, so the scale deployments' clients of one transaction
// cost one row read and no second miss; past that, a long row that owns its
// array, where sequence base+i is cell i. A long row doubles into a fresh
// array, copying only itself and leaving nothing behind. Its base is the
// first sequence it saw, rounded down, so a client whose sequences start
// high costs the span it uses, not the prefix it skipped.
//
// The table never deletes: a committed entry is kept for the run's lifetime
// (that is the ledger's dedup set).
type txTable struct {
	rows []txRow    // indexed by client
	long [][]uint32 // the long rows' cells, indexed by txRow.key &^ txLongRow
	// clients is the deployment's client count (see Genesis): the first
	// transaction of a client below it allocates every row at once, at
	// exactly that length. Zero, or a client past it, grows rows by append.
	clients int
}

// txRow is one client's row. An inline row has key seq+1 and cell the state
// of sequence seq. A long row has txLongRow set in key, the rest of key
// indexing txTable.long, and cell its base: sequence base+i is cell i of its
// array. A client the table has never seen has key zero.
type txRow struct {
	key, cell uint32
}

// Packed cell state; zero means the table has never seen the transaction.
// The 28 bits above the four flags hold the committed height plus one, zero
// meaning "not committed".
const (
	// txMark is a scratch mark — BaseNode.Merge's first sight, and
	// releasePipeline's "a queued block holds it": set and cleared within
	// one event, it is never set between events.
	txMark     uint32 = 1 << 0
	txPooled   uint32 = 1 << 1 // queued in the node's mempool
	txPipeline uint32 = 1 << 2 // in a decided-but-unexecuted block
	// txSubscribed says BaseNode.subscribers has an entry for the
	// transaction: a client asked this node to tell it when it commits.
	txSubscribed uint32 = 1 << 3

	txHeightShift = 4
	// maxTxHeight is the highest block height the packed state can record:
	// 2^28 - 2.
	maxTxHeight = 1<<(32-txHeightShift) - 2

	// txLongRow marks a long row's key, so an inline key is at most
	// txLongRow-1: a client's first sequence at or past 2^31-1 starts long.
	txLongRow uint32 = 1 << 31
	// txRowMinCells is a long row's first length and alignment (sizing, not
	// a setting): an inline cell counts as the aligned pair around it.
	txRowMinCells = 2
)

// committedHeight unpacks a cell state's committed height.
func committedHeight(state uint32) (int, bool) {
	if h := state >> txHeightShift; h != 0 {
		return int(h) - 1, true
	}
	return 0, false
}

// state returns id's packed state, zero when the table has never seen it.
func (t *txTable) state(id TxID) uint32 {
	if s := t.find(id); s != nil {
		return *s
	}
	return 0
}

// find returns id's state word, or nil when no row covers it.
func (t *txTable) find(id TxID) *uint32 {
	c, seq := id.Client(), id.Seq()
	if uint64(c) >= uint64(len(t.rows)) {
		return nil
	}
	r := &t.rows[c]
	if r.key&txLongRow == 0 {
		if r.key != 0 && r.key-1 == seq {
			return &r.cell
		}
		return nil
	}
	cells := t.long[r.key&^txLongRow]
	if i := seq - r.cell; uint64(i) < uint64(len(cells)) { // wraps past len below the base
		return &cells[i]
	}
	return nil
}

// slot returns id's state word, growing id's row to cover it on first sight.
// The pointer is valid until the next slot call (which may move the rows or
// id's long row).
func (t *txTable) slot(id TxID) *uint32 {
	if s := t.find(id); s != nil {
		return s
	}
	return t.grow(id)
}

// clear drops flags from id's state and returns the state it had before.
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
	for i := range t.rows {
		if r := &t.rows[i]; r.key&txLongRow == 0 {
			r.cell &^= flags
		}
	}
	for _, cells := range t.long {
		for i := range cells {
			cells[i] &^= flags
		}
	}
}

// grow makes id's row cover it. A new row is one inline cell. A row that
// needs a second sequence becomes long and doubles until it spans both what
// it held and id, and the new cells go on the side it grew toward: above in
// the common case, below (a re-base) when id precedes the base — so a client
// that counts downward pays amortised doublings too, not one move per
// transaction.
func (t *txTable) grow(id TxID) *uint32 {
	c, seq := int(id.Client()), uint64(id.Seq())
	if c >= len(t.rows) {
		if len(t.rows) == 0 && c < t.clients {
			t.rows = make([]txRow, t.clients)
		} else {
			t.rows = append(t.rows, make([]txRow, c+1-len(t.rows))...)
		}
	}
	r := &t.rows[c]
	if r.key == 0 && seq+1 < uint64(txLongRow) {
		*r = txRow{key: uint32(seq) + 1}
		return &r.cell
	}
	// held is what the row held from oldBase: a long row's cells, an inline
	// cell as its aligned pair, or nothing.
	var pair [txRowMinCells]uint32
	held, oldBase := []uint32(nil), seq&^(txRowMinCells-1)
	switch {
	case r.key&txLongRow != 0:
		held, oldBase = t.long[r.key&^txLongRow], uint64(r.cell)
	case r.key != 0:
		oldBase = uint64(r.key-1) &^ (txRowMinCells - 1)
		pair[uint64(r.key-1)-oldBase], held = r.cell, pair[:]
	}
	lo, end := min(seq&^(txRowMinCells-1), oldBase), max(seq+1, oldBase+uint64(len(held)))
	n, base := max(uint64(len(held)), txRowMinCells), oldBase
	for ; lo+n < end; n *= 2 {
	}
	if seq < base {
		base = end - min(end, n)
	}
	if n >= 1<<32 {
		panic("chain: transaction row past 2^32 cells; TxIDs must be dense (see TxID)")
	}
	cells := make([]uint32, n)
	copy(cells[oldBase-base:], held)
	if r.key&txLongRow == 0 {
		r.key = txLongRow | uint32(len(t.long))
		t.long = append(t.long, nil)
	}
	t.long[r.key&^txLongRow], r.cell = cells, uint32(base)
	return &cells[seq-base]
}
