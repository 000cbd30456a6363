package chain

// txTable is a validator's per-transaction state: one packed state word per
// TxID that the ledger owns and shares with its node's mempool and execution
// pipeline, so "is this pending, decided, committed, or awaited by a client"
// is one array read wherever it is asked.
//
// The table is indexed by position, not probed: a TxID is (client, sequence),
// both dense by contract (see TxID), so transaction (c, s) is cell s-base of
// client c's row. A row of at most txInlineCells cells keeps them in the row
// itself, so the scale deployments' clients of one or two transactions cost
// one 16-byte row read and no second miss. Longer rows live in one arena: a
// row that outgrows its cells doubles into fresh cells at the arena's end (in
// place when it already ends there) and abandons the old ones, so the arena
// stays within twice the cells in use and each row grows with its own client.
// A row's base is the first sequence it saw, rounded down, so a client whose
// sequences start high costs the span it uses, not the prefix it skipped.
//
// The table never deletes: a committed entry is kept for the run's lifetime
// (that is the ledger's dedup set), and a checkpoint is two slice copies.
type txTable struct {
	cells []uint32 // the arena; abandoned cells are never read again
	rows  []txRow  // indexed by client
	// clients is the deployment's client count (see Genesis): the first
	// transaction of a client below it allocates every row at once, at
	// exactly that length. Zero, or a client past it, grows rows by append.
	clients int
}

// txRow locates one client's cells: sequence base+i is cell i of the row,
// i < n. Up to txInlineCells cells are cells[i] itself; past that, cells[0]
// is the row's arena offset and cell i is the arena's cells[0]+i. A client
// the table has never seen has n zero.
type txRow struct {
	base, n uint32
	cells   [txInlineCells]uint32
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

	// Sizing, not settings. A new row covers txRowMinCells sequences: the
	// scale deployments run a thousand clients of one or two transactions
	// per validator, so the minimum is what they pay per client, inline.
	// The first arena allocation holds txArenaMinCells cells so a small
	// table does not creep there reallocation by reallocation.
	txRowMinCells   = 2
	txInlineCells   = 2
	txArenaMinCells = 1024
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
	c := id.Client()
	if uint64(c) >= uint64(len(t.rows)) {
		return nil
	}
	r := &t.rows[c]
	i := id.Seq() - r.base // wraps past n below the base
	if i >= r.n {
		return nil
	}
	if r.n <= txInlineCells {
		return &r.cells[i]
	}
	return &t.cells[r.cells[0]+i]
}

// slot returns id's state word, growing id's row to cover it on first sight.
// The pointer is valid until the next slot call (which may move the arena).
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
	for i := range t.cells {
		t.cells[i] &^= flags
	}
	for i := range t.rows {
		if r := &t.rows[i]; r.n <= txInlineCells {
			for j := range r.cells {
				r.cells[j] &^= flags
			}
		}
	}
}

// grow makes id's row cover it. A new row starts at id's sequence rounded
// down, inline. An existing one doubles until it spans both what it held and
// id, and the new cells go on the side it grew toward: above in the common
// case, below (a re-base) when id precedes the base — so a client that
// counts downward pays amortised doublings too, not one move per
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
	old := t.rows[c]
	base, n := seq&^(txRowMinCells-1), uint64(txRowMinCells)
	if old.n != 0 {
		lo, end := min(base, uint64(old.base)), max(seq+1, uint64(old.base)+uint64(old.n))
		for n = uint64(old.n); lo+n < end; n *= 2 {
		}
		if base = uint64(old.base); seq < base {
			base = end - min(end, n)
		}
	}
	if n <= txInlineCells { // a new row: no cells to carry over
		t.rows[c] = txRow{base: uint32(base), n: uint32(n)}
		return &t.rows[c].cells[seq-base]
	}
	if cap(t.cells) == 0 {
		t.cells = make([]uint32, 0, txArenaMinCells)
	}
	off := uint64(len(t.cells))
	inArena := old.n > txInlineCells
	oldOff := uint64(old.cells[0]) // the arena offset when inArena
	inPlace := inArena && base == uint64(old.base) && oldOff+uint64(old.n) == off
	if inPlace {
		off = oldOff
	}
	if off+n >= 1<<32 {
		panic("chain: transaction table past 2^32 cells; TxIDs must be dense (see TxID)")
	}
	t.cells = append(t.cells, make([]uint32, off+n-uint64(len(t.cells)))...)
	if !inPlace && old.n != 0 {
		var held []uint32
		if inArena {
			held = t.cells[oldOff : oldOff+uint64(old.n)]
		} else {
			held = old.cells[:old.n]
		}
		copy(t.cells[off+uint64(old.base)-base:], held)
	}
	t.rows[c] = txRow{base: uint32(base), n: uint32(n), cells: [txInlineCells]uint32{uint32(off)}}
	return &t.cells[off+seq-base]
}
