package chain

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"stabl/internal/simnet"
)

// The transaction table is checked against a map-based oracle by an
// interpreter of three-byte operations (opcode, two argument bytes) over a
// node's real Ledger + Mempool pair sharing one table — the layout
// NewBaseNode builds. TestTxTableModel feeds it long random streams;
// FuzzTxTable lets the fuzzer write the stream.

const txUniverse = 1024

// The high family starts far from zero; the flag family straddles 2^31-1,
// the first sequence an inline row cannot name; the low family walks
// downward, so a stream that meets it in index order re-bases its row again
// and again.
const (
	highClient, highBase = 5, 1_000_000
	lowClient, lowTop    = 6, 5_000
	flagClient, flagBase = 7, 1<<31 - 64
)

// universeID maps an index to a TxID. The lower half are four clients whose
// sequences cross five row doublings; then a quarter for one client whose
// sequences start at a high base (client 4, between them, never appears: an
// empty row); an eighth around the flag bit; the last eighth descends three
// sequences at a time. A random stream touches every family out of order, so
// rows also re-base inside the dense ranges.
func universeID(i int) TxID {
	i %= txUniverse
	switch {
	case i < txUniverse/2:
		return MakeTxID(uint32(i%4), uint32(i/4))
	case i < txUniverse/4*3:
		return MakeTxID(highClient, uint32(highBase+i-txUniverse/2))
	case i < txUniverse/8*7:
		return MakeTxID(flagClient, uint32(flagBase+i-txUniverse/4*3))
	default:
		return MakeTxID(lowClient, uint32(lowTop-3*(i-txUniverse/8*7)))
	}
}

func universeTx(i int) Tx {
	return Tx{ID: universeID(i), From: Address(i % 8), To: Address((i + 1) % 8), Nonce: uint64(i)}
}

// txOracle is the map-based state the table replaced.
type txOracle struct {
	queue     []TxID
	pooled    map[TxID]bool
	pipeline  map[TxID]bool
	committed map[TxID]int
	// subscribed lists, in order, the clients BaseNode's subscription maps
	// must notify.
	subscribed map[TxID][]simnet.NodeID
}

func newTxOracle() *txOracle {
	return &txOracle{
		pooled:     map[TxID]bool{},
		pipeline:   map[TxID]bool{},
		committed:  map[TxID]int{},
		subscribed: map[TxID][]simnet.NodeID{},
	}
}

func (o *txOracle) clone() *txOracle {
	c := newTxOracle()
	c.queue = append(c.queue, o.queue...)
	for k, v := range o.pooled {
		c.pooled[k] = v
	}
	for k, v := range o.pipeline {
		c.pipeline[k] = v
	}
	for k, v := range o.committed {
		c.committed[k] = v
	}
	for k, v := range o.subscribed {
		c.subscribed[k] = slices.Clone(v)
	}
	return c
}

func (o *txOracle) unqueue(drop map[TxID]bool) {
	kept := o.queue[:0]
	for _, id := range o.queue {
		if drop[id] {
			delete(o.pooled, id)
			continue
		}
		kept = append(kept, id)
	}
	o.queue = kept
}

// txModel pairs the real structures with the oracle.
type txModel struct {
	t      testing.TB
	node   *BaseNode
	ledger *Ledger
	pool   *Mempool
	oracle *txOracle

	// span is each client's lowest and highest sequence ever handed to an
	// operation that slots it: the hull its row must cover.
	span map[uint32][2]uint32

	savedLedger ledgerState
	savedPool   poolState
	savedNode   nodeState
	savedOracle *txOracle
	savedSpan   map[uint32][2]uint32
}

func newTxModel(t testing.TB) *txModel {
	n := NewBaseNode(0, nil, nil, BaseConfig{})
	n.subscribers = make(map[TxID]simnet.NodeID)
	return &txModel{t: t, node: n, ledger: n.Ledger, pool: n.Pool, oracle: newTxOracle(), span: map[uint32][2]uint32{}}
}

// touch widens the spans of the clients of txs.
func (m *txModel) touch(txs ...Tx) {
	for _, tx := range txs {
		c, seq := tx.ID.Client(), tx.ID.Seq()
		sp, ok := m.span[c]
		if !ok {
			sp = [2]uint32{seq, seq}
		}
		m.span[c] = [2]uint32{min(sp[0], seq), max(sp[1], seq)}
	}
}

// run interprets ops. Every op checks its own result; the whole universe is
// compared every few ops and at the end.
func (m *txModel) run(ops []byte) {
	for n := 1; len(ops) >= 3; ops, n = ops[3:], n+1 {
		m.step(ops[0], int(ops[1])<<8|int(ops[2]))
		if n%8 == 0 || len(ops) < 6 {
			m.check()
		}
	}
}

// blockOf returns 1..5 consecutive universe transactions starting at arg.
func blockOf(arg int) []Tx {
	txs := make([]Tx, 1+arg%5)
	for i := range txs {
		txs[i] = universeTx(arg + i)
	}
	return txs
}

func (m *txModel) step(op byte, arg int) {
	t, o := m.t, m.oracle
	switch op % 8 {
	case 0: // add; every other one for a client that subscribes first, as HandleClient does
		tx := universeTx(arg)
		m.touch(tx)
		_, isCommitted := o.committed[tx.ID]
		if arg&1 == 1 && !isCommitted {
			m.node.Subscribe(tx.ID, simnet.NodeID(arg))
			o.subscribed[tx.ID] = append(o.subscribed[tx.ID], simnet.NodeID(arg))
		}
		want := !o.pooled[tx.ID] && !isCommitted
		if got := m.pool.Add(tx); got != want {
			t.Fatalf("Add(%v) = %v, oracle says %v", tx.ID, got, want)
		}
		if want {
			o.pooled[tx.ID] = true
			o.queue = append(o.queue, tx.ID)
		}
	case 1: // merge overlapping lists, as Redbelly's assemble does
		lists := [][]Tx{blockOf(arg), blockOf(arg + 2), blockOf(arg + arg%3)}
		m.touch(slices.Concat(lists...)...)
		got := m.node.Merge(lists)
		var want []TxID
		first := map[TxID]bool{}
		for _, tx := range slices.Concat(lists...) {
			if m.ledger.txs.state(tx.ID)&txMark != 0 {
				t.Fatalf("%v keeps its first-sight mark after Merge returned", tx.ID)
			}
			if !first[tx.ID] {
				first[tx.ID] = true
				want = append(want, tx.ID)
			}
		}
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("Merge returned %d txs in room for %d, map dedup %d", len(got), cap(got), len(want))
		}
		for i, tx := range got {
			if tx.ID != want[i] {
				t.Fatalf("Merge()[%d] = %v, map dedup %v", i, tx.ID, want[i])
			}
		}
	case 2: // pop
		got := m.pool.Pop(arg % 8)
		n := arg % 8
		if n == 0 || n > len(o.queue) {
			n = len(o.queue)
		}
		if len(got) != n {
			t.Fatalf("Pop(%d) returned %d txs, oracle says %d", arg%8, len(got), n)
		}
		for i, tx := range got {
			if tx.ID != o.queue[i] {
				t.Fatalf("Pop()[%d] = %v, oracle says %v", i, tx.ID, o.queue[i])
			}
			delete(o.pooled, tx.ID)
		}
		o.queue = o.queue[n:]
	case 3: // submit block: mark the pipeline, as BaseNode.SubmitBlock does
		for _, tx := range blockOf(arg) {
			m.touch(tx)
			*m.ledger.txs.slot(tx.ID) |= txPipeline
			o.pipeline[tx.ID] = true
		}
	case 4: // commit block: Ledger.Append, then what BaseNode.apply does
		b := Block{Height: m.ledger.Height(), Parent: m.ledger.TipHash(), Txs: blockOf(arg)}
		m.touch(b.Txs...)
		executed, err := m.ledger.Append(b)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		fresh := 0
		drop := map[TxID]bool{}
		for _, tx := range b.Txs {
			if _, dup := o.committed[tx.ID]; !dup {
				o.committed[tx.ID] = b.Height
				fresh++
			}
			delete(o.pipeline, tx.ID)
			drop[tx.ID] = true
			if m.ledger.txs.clear(tx.ID, txPipeline|txSubscribed)&txSubscribed != 0 {
				if got := subscriptions(m.node, tx.ID); !slices.Equal(got, o.subscribed[tx.ID]) {
					t.Fatalf("%v: subscribers to notify %v, oracle %v", tx.ID, got, o.subscribed[tx.ID])
				}
				delete(m.node.subscribers, tx.ID)
				delete(m.node.resubscribers, tx.ID)
				delete(o.subscribed, tx.ID)
			}
		}
		if executed != fresh {
			t.Fatalf("Append executed %d txs, oracle says %d", executed, fresh)
		}
		m.pool.Drop(b.Txs)
		o.unqueue(drop)
	case 5: // drop without commit
		txs := blockOf(arg)
		drop := map[TxID]bool{}
		for _, tx := range txs {
			drop[tx.ID] = true
		}
		m.pool.Drop(txs)
		o.unqueue(drop)
	case 6: // restart: BaseNode.Reset's sweeps
		m.pool.Clear()
		m.ledger.txs.sweep(txPipeline | txSubscribed)
		m.node.subscribers = make(map[TxID]simnet.NodeID)
		m.node.resubscribers = nil
		o.queue = nil
		o.pooled = map[TxID]bool{}
		o.pipeline = map[TxID]bool{}
		o.subscribed = map[TxID][]simnet.NodeID{}
	case 7: // checkpoint (even) / rewind (odd)
		if arg%2 == 0 {
			m.ledger.ledgerState.copyInto(&m.savedLedger)
			m.pool.poolState.copyInto(&m.savedPool)
			m.savedNode = m.node.nodeState.clone()
			m.savedOracle = o.clone()
			m.savedSpan = maps.Clone(m.span)
		} else if m.savedOracle != nil {
			m.savedLedger.copyInto(&m.ledger.ledgerState)
			m.savedPool.copyInto(&m.pool.poolState)
			m.node.nodeState = m.savedNode.clone()
			m.oracle = m.savedOracle.clone()
			m.span = maps.Clone(m.savedSpan)
		}
	}
}

// subscriptions lists, in order, the clients n notifies when id commits: the
// inline first subscriber, then the spilled repeats.
func subscriptions(n *BaseNode, id TxID) []simnet.NodeID {
	first, ok := n.subscribers[id]
	if !ok {
		return nil
	}
	return append([]simnet.NodeID{first}, n.resubscribers[id]...)
}

// rowCells returns client c's row: its first sequence and its cells, an
// inline row's one cell aliasing the row. An unseen client has none.
func rowCells(tab *txTable, c int) (base uint32, cells []uint32) {
	switch r := &tab.rows[c]; {
	case r.key == 0:
		return 0, nil
	case r.key&txLongRow == 0:
		return r.key - 1, unsafe.Slice(&r.cell, 1)
	default:
		return r.cell, tab.long[r.key&^txLongRow]
	}
}

// cellsInUse is the cells the table's rows hold: one per inline row, a long
// row's length.
func cellsInUse(tab *txTable) int {
	n := 0
	for c := range tab.rows {
		_, cells := rowCells(tab, c)
		n += len(cells)
	}
	return n
}

func (m *txModel) check() {
	t, o, tab := m.t, m.oracle, m.ledger.txs
	// Each row covers its client's span. An inline row is a client that
	// used one sequence; a long row is a power of two long from an aligned
	// base, owns its array alone, and is under four times its client's
	// aligned span: a doubling is under twice the span it must cover, which
	// exceeds the client's by the slack on its far side, under half the old
	// row. (Twice does not hold: sequences 100, 68, 103 make a row of 128
	// cells from 38 for a span of 36.)
	owner := make([]int, len(tab.long))
	stateful := 0
	for c, r := range tab.rows {
		sp, used := m.span[uint32(c)]
		base, cells := rowCells(&tab, c)
		switch {
		case r.key == 0:
			if used || r.cell != 0 {
				t.Fatalf("row %d is unseen yet holds %#x; its client used %v", c, r.cell, sp)
			}
		case r.key&txLongRow == 0:
			if sp != [2]uint32{base, base} {
				t.Fatalf("row %d is inline for sequence %d; its client used %v", c, base, sp)
			}
		default:
			if i := r.key &^ txLongRow; owner[i] != 0 {
				t.Fatalf("long row %d belongs to rows %d and %d", i, owner[i]-1, c)
			} else {
				owner[i] = c + 1
			}
			n, lo, end := uint64(len(cells)), uint64(sp[0])&^(txRowMinCells-1), uint64(sp[1])&^(txRowMinCells-1)+txRowMinCells
			switch {
			case n < txRowMinCells || n&(n-1) != 0 || base%txRowMinCells != 0:
				t.Fatalf("row %d: %d cells from base %d", c, n, base)
			case uint64(base) > lo || uint64(base)+n < end:
				t.Fatalf("row %d of %d cells from %d does not cover its client's span %v", c, n, base, sp)
			case n >= 4*(end-lo):
				t.Fatalf("row %d of %d cells for its client's span %v", c, n, sp)
			case sp[0] == sp[1] && sp[0] < txLongRow-1:
				t.Fatalf("row %d is long for one sequence %d", c, sp[0])
			}
		}
		for _, cell := range cells {
			if cell&txMark != 0 {
				t.Fatalf("row %d keeps a first-sight mark between steps (state %#x)", c, cell)
			}
			if cell != 0 {
				stateful--
			}
		}
	}
	for i, c := range owner {
		if c == 0 {
			t.Fatalf("long row %d belongs to no client", i)
		}
	}
	for i := 0; i < txUniverse; i++ {
		id := universeID(i)
		state := tab.state(id)
		if state != 0 {
			stateful++
		}
		if got := state&txPooled != 0; got != o.pooled[id] || got != m.pool.Contains(id) {
			t.Fatalf("%v: pooled bit %v, Contains %v, oracle %v", id, got, m.pool.Contains(id), o.pooled[id])
		}
		if got := state&txPipeline != 0; got != o.pipeline[id] {
			t.Fatalf("%v: pipeline bit %v, oracle %v", id, got, o.pipeline[id])
		}
		if got, subs := state&txSubscribed != 0, subscriptions(m.node, id); got != (len(o.subscribed[id]) > 0) || !slices.Equal(subs, o.subscribed[id]) {
			t.Fatalf("%v: subscribed bit %v over subscribers %v, oracle %v", id, got, subs, o.subscribed[id])
		}
		if _, spilled := m.node.resubscribers[id]; spilled && len(o.subscribed[id]) < 2 {
			t.Fatalf("%v: a spill entry for %d subscriptions", id, len(o.subscribed[id]))
		}
		wantH, wantOK := o.committed[id]
		if h, ok := m.ledger.Committed(id); ok != wantOK || h != wantH {
			t.Fatalf("%v: Committed = (%d, %v), oracle (%d, %v)", id, h, ok, wantH, wantOK)
		}
	}
	// Nothing but the universe was ever written: a cell between two ids of
	// the sparse family holds no state.
	if stateful != 0 {
		t.Fatalf("live cells with state and universe ids with state differ by %d", -stateful)
	}
	pending := m.pool.Pending()
	if len(pending) != len(o.queue) || m.pool.Len() != len(o.queue) {
		t.Fatalf("queue holds %d (Len %d), oracle %d", len(pending), m.pool.Len(), len(o.queue))
	}
	for i, tx := range pending {
		if tx.ID != o.queue[i] {
			t.Fatalf("queue[%d] = %v, oracle %v", i, tx.ID, o.queue[i])
		}
	}
}

func TestTxTableModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*3000)
		rng.Read(ops)
		m := newTxModel(t)
		m.run(ops)
		tab := &m.ledger.txs
		for c, want := range map[int]int{0: 128, 1: 128, 2: 128, 3: 128, highClient: 256, flagClient: 128, lowClient: 256} {
			if _, cells := rowCells(tab, c); len(cells) < want {
				t.Fatalf("seed %d: row %d only grew to %d cells; the stream must cross every doubling up to %d", seed, c, len(cells), want)
			}
		}
		if tab.rows[4] != (txRow{}) {
			t.Fatalf("seed %d: the client nobody used holds row %+v", seed, tab.rows[4])
		}
		if base, cells := rowCells(tab, highClient); base > highBase || int(base)+len(cells) <= highBase || len(cells) > 1024 {
			t.Fatalf("seed %d: the high family's row is %d cells from %d, want its span and no more around %d", seed, len(cells), base, highBase)
		}
	}
}

// TestTxTableRowsGrowIndependently runs one client to sequence 50,000 beside
// one that stops at 3: the short row stays four cells, a late client's one
// sequence stays inline, and the long row is the smallest power of two that
// spans its client's sequences however the three interleave.
func TestTxTableRowsGrowIndependently(t *testing.T) {
	var tab txTable
	for s := uint32(0); s <= 50_000; s++ {
		*tab.slot(MakeTxID(0, s)) |= (s + 1) << txHeightShift
		if s <= 3 {
			*tab.slot(MakeTxID(1, s)) |= txPooled
		}
		if s == 40_000 { // a late client lands while the long row keeps growing
			*tab.slot(MakeTxID(2, 7)) |= txPipeline
		}
	}
	if base, cells := rowCells(&tab, 1); len(cells) != 4 || base != 0 {
		t.Fatalf("the short client's row is %d cells from %d", len(cells), base)
	}
	if got := tab.rows[2]; got != (txRow{key: 8, cell: txPipeline}) {
		t.Fatalf("the late client's row is %+v, want sequence 7 inline", got)
	}
	if base, cells := rowCells(&tab, 0); len(cells) != 1<<16 || base != 0 || len(tab.long) != 2 {
		t.Fatalf("long row %d cells from %d; %d long rows for two clients", len(cells), base, len(tab.long))
	}
	for s := uint32(0); s <= 50_000; s += 997 {
		if h, ok := committedHeight(tab.state(MakeTxID(0, s))); !ok || h != int(s) {
			t.Fatalf("tx0.%d reads (%d, %v)", s, h, ok)
		}
	}
	if tab.state(MakeTxID(1, 3)) != txPooled || tab.state(MakeTxID(2, 7)) != txPipeline {
		t.Fatal("a short row lost its state when the long one moved")
	}
	for _, id := range []TxID{MakeTxID(0, 1<<16), MakeTxID(1, 4), MakeTxID(2, 6), MakeTxID(2, 8), MakeTxID(3, 0), MakeTxID(1<<20, 0)} {
		if tab.state(id) != 0 || tab.clear(id, txPooled) != 0 {
			t.Fatalf("%v is outside every row yet has state", id)
		}
	}
}

// TestTxTableSequenceBoundaries holds one client to the sequences the row
// encoding turns on, each in a fresh table: 0 and 2^31-2 start inline (the
// latter as the largest inline key), 2^31-1 and 2^32-1 start as a long row of
// their aligned pair (the latter's key seq+1 would wrap to "unseen"). The
// pair's other sequence then joins the same two-cell row, and a row that
// would hold both ends of the range is the dense contract's panic.
func TestTxTableSequenceBoundaries(t *testing.T) {
	const c = 3
	for _, seq := range []uint32{0, 1<<31 - 2, 1<<31 - 1, 1<<32 - 1} {
		var tab txTable
		*tab.slot(MakeTxID(c, seq)) |= txPooled
		if inline := tab.rows[c].key&txLongRow == 0; inline != (seq < 1<<31-1) {
			t.Fatalf("sequence %d: row %+v", seq, tab.rows[c])
		}
		for _, other := range []uint32{seq - 1, seq + 1, seq ^ 1} {
			if tab.state(MakeTxID(c, other)) != 0 {
				t.Fatalf("sequence %d: its neighbour %d has state %#x", seq, other, tab.state(MakeTxID(c, other)))
			}
		}
		*tab.slot(MakeTxID(c, seq^1)) |= txPipeline
		base, cells := rowCells(&tab, c)
		if len(cells) != 2 || base != seq&^1 || len(tab.long) != 1 {
			t.Fatalf("sequence %d and its pair: %d cells from %d in %d long rows", seq, len(cells), base, len(tab.long))
		}
		if tab.state(MakeTxID(c, seq)) != txPooled || tab.state(MakeTxID(c, seq^1)) != txPipeline {
			t.Fatalf("sequence %d and its pair read %#x and %#x", seq, tab.state(MakeTxID(c, seq)), tab.state(MakeTxID(c, seq^1)))
		}
		for _, other := range []uint32{seq&^1 - 1, seq&^1 + 2} {
			if tab.state(MakeTxID(c, other)) != 0 {
				t.Fatalf("sequence %d: %d beside its pair has state", seq, other)
			}
		}
	}
	var tab txTable
	tab.slot(MakeTxID(c, 0))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a row spanning 2^32 sequences did not panic")
		}
	}()
	tab.slot(MakeTxID(c, 1<<32-1))
}

// TestTxTableInlineToLong: a client whose second sequence lies far above its
// first moves its inline cell into a long row based at the first; one whose
// second lies far below re-bases downward from the inline cell, leaving
// slack below so the next descents stay in the row.
func TestTxTableInlineToLong(t *testing.T) {
	var tab txTable
	*tab.slot(MakeTxID(0, 5)) |= txPooled
	*tab.slot(MakeTxID(0, 1000)) |= txPipeline
	if base, cells := rowCells(&tab, 0); base != 4 || len(cells) != 1024 {
		t.Fatalf("up from inline: %d cells from %d, want 1024 from 4", len(cells), base)
	}
	const hi, lo = 1_000_000, 999_000
	*tab.slot(MakeTxID(1, hi)) |= txPooled
	*tab.slot(MakeTxID(1, lo)) |= txPipeline
	base, cells := rowCells(&tab, 1)
	if base >= lo || base+uint32(len(cells)) != hi+2 || len(cells) != 1024 {
		t.Fatalf("down from inline: %d cells from %d, want 1024 ending at %d", len(cells), base, hi+2)
	}
	*tab.slot(MakeTxID(1, base)) |= txPooled
	if _, again := rowCells(&tab, 1); &again[0] != &cells[0] {
		t.Fatal("a descent into the slack below moved the row")
	}
	for id, want := range map[TxID]uint32{MakeTxID(0, 5): txPooled, MakeTxID(0, 1000): txPipeline,
		MakeTxID(1, hi): txPooled, MakeTxID(1, lo): txPipeline, MakeTxID(1, base): txPooled, MakeTxID(1, base-1): 0} {
		if got := tab.state(id); got != want {
			t.Fatalf("%v reads %#x, want %#x", id, got, want)
		}
	}
}

// TestTxTableRowsSizedOnce: a genesis ledger's table takes one row per
// client of the deployment at its first transaction, so once every client
// has been seen its rows' capacity is exactly the client count (an append
// would round it up); a client past that count still grows the rows, and a
// ledger without a client count grows them as it goes.
func TestTxTableRowsSizedOnce(t *testing.T) {
	const clients = 1000
	l := NewLedger()
	l.Genesis(NewGenesis(nil, clients))
	if l.txs.rows != nil {
		t.Fatal("Genesis allocated the rows before the first transaction")
	}
	for i := 0; i < clients; i++ {
		c := uint32((i + clients/2) % clients) // the first client is not client 0
		*l.txs.slot(MakeTxID(c, 1)) |= txPooled
	}
	if len(l.txs.rows) != clients || cap(l.txs.rows) != clients {
		t.Fatalf("rows of length %d and capacity %d for %d clients", len(l.txs.rows), cap(l.txs.rows), clients)
	}
	*l.txs.slot(MakeTxID(clients+5, 0)) |= txPipeline
	if len(l.txs.rows) != clients+6 || l.txs.state(MakeTxID(clients+5, 0)) != txPipeline || l.txs.state(MakeTxID(0, 1)) != txPooled {
		t.Fatalf("a client past the count left %d rows", len(l.txs.rows))
	}
	var plain txTable
	for c := uint32(0); c < clients; c++ {
		plain.slot(MakeTxID(c, 1))
	}
	if cap(plain.rows) == clients {
		t.Fatalf("a table without a client count sized its rows at exactly %d", clients)
	}
}

func FuzzTxTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 0, 0, 0, 1}) // add, re-add, pop all, add again
	f.Add([]byte{0, 0, 5, 3, 0, 5, 7, 0, 0, 4, 0, 5, 6, 0, 0, 7, 0, 1, 0, 0, 5})
	// Fill the high family's row past several doublings, then commit,
	// restart and rewind.
	long := []byte{7, 0, 0}
	for i := 0; i < 80; i++ {
		long = append(long, 0, 2, byte(i), 3, 2, byte(i), 4, 2, byte(i))
	}
	long = append(long, 6, 0, 0, 7, 0, 1)
	f.Add(long)
	// The flag family: the largest inline sequence, then its pair past the
	// flag bit; and a row that starts long at 2^31-1, then re-bases downward.
	f.Add([]byte{0, 3, 0x3e, 0, 3, 0x3f, 3, 3, 0x40, 4, 3, 0x3a, 7, 0, 1})
	f.Add([]byte{0, 3, 0x3f, 0, 3, 0x00, 1, 3, 0x3c, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*500 {
			ops = ops[:3*500]
		}
		newTxModel(t).run(ops)
	})
}
