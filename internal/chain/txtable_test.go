package chain

import (
	"math/rand"
	"testing"

	"stabl/internal/simnet"
)

// The transaction table is checked against a map-based oracle by an
// interpreter of three-byte operations (opcode, two argument bytes) over a
// node's real Ledger + Mempool pair sharing one table — the layout
// NewBaseNode builds. TestTxTableModel feeds it long random streams;
// FuzzTxTable lets the fuzzer write the stream.

const txUniverse = 1024

// The high family starts far from zero; the low family walks downward, so a
// stream that meets it in index order re-bases its row again and again.
const (
	highClient, highBase = 5, 1_000_000
	lowClient, lowTop    = 6, 5_000
)

// universeID maps an index to a TxID. The lower half are four clients whose
// sequences cross five row doublings; then one client whose sequences start
// at a high base (client 4, between them, never appears: an empty row); the
// last eighth descends three sequences at a time. A random stream touches
// every family out of order, so rows also re-base inside the dense ranges.
func universeID(i int) TxID {
	i %= txUniverse
	switch {
	case i < txUniverse/2:
		return MakeTxID(uint32(i%4), uint32(i/4))
	case i < txUniverse/8*7:
		return MakeTxID(highClient, uint32(highBase+i-txUniverse/2))
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
	// subscribed counts the subscriptions BaseNode.subscribers must hold.
	subscribed map[TxID]int
}

func newTxOracle() *txOracle {
	return &txOracle{
		pooled:     map[TxID]bool{},
		pipeline:   map[TxID]bool{},
		committed:  map[TxID]int{},
		subscribed: map[TxID]int{},
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
		c.subscribed[k] = v
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

	savedLedger ledgerState
	savedPool   poolState
	savedNode   nodeState
	savedOracle *txOracle
}

func newTxModel(t testing.TB) *txModel {
	n := NewBaseNode(0, nil, nil, BaseConfig{})
	n.subscribers = make(map[TxID][]simnet.NodeID)
	return &txModel{t: t, node: n, ledger: n.Ledger, pool: n.Pool, oracle: newTxOracle()}
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
		_, isCommitted := o.committed[tx.ID]
		if arg&1 == 1 && !isCommitted {
			m.node.Subscribe(tx.ID, simnet.NodeID(arg))
			o.subscribed[tx.ID]++
		}
		want := !o.pooled[tx.ID] && !isCommitted
		if got := m.pool.Add(tx); got != want {
			t.Fatalf("Add(%v) = %v, oracle says %v", tx.ID, got, want)
		}
		if want {
			o.pooled[tx.ID] = true
			o.queue = append(o.queue, tx.ID)
		}
	case 1: // merge two overlapping lists, as Redbelly's assemble does
		a, b := blockOf(arg), blockOf(arg+2)
		got := m.node.Union(m.node.Union(nil, a), b)
		m.node.EndUnion(got)
		var want []TxID
		first := map[TxID]bool{}
		for _, tx := range append(a, b...) {
			if !first[tx.ID] {
				first[tx.ID] = true
				want = append(want, tx.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Union merged %d txs, map dedup %d", len(got), len(want))
		}
		for i, tx := range got {
			if tx.ID != want[i] {
				t.Fatalf("Union()[%d] = %v, map dedup %v", i, tx.ID, want[i])
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
			*m.ledger.txs.slot(tx.ID) |= txPipeline
			o.pipeline[tx.ID] = true
		}
	case 4: // commit block: Ledger.Append, then what BaseNode.apply does
		b := Block{Height: m.ledger.Height(), Parent: m.ledger.TipHash(), Txs: blockOf(arg)}
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
				if len(m.node.subscribers[tx.ID]) != o.subscribed[tx.ID] {
					t.Fatalf("%v: %d subscribers to notify, oracle %d", tx.ID, len(m.node.subscribers[tx.ID]), o.subscribed[tx.ID])
				}
				delete(m.node.subscribers, tx.ID)
				delete(o.subscribed, tx.ID)
			}
		}
		if len(executed) != fresh {
			t.Fatalf("Append executed %d txs, oracle says %d", len(executed), fresh)
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
		m.node.subscribers = make(map[TxID][]simnet.NodeID)
		o.queue = nil
		o.pooled = map[TxID]bool{}
		o.pipeline = map[TxID]bool{}
		o.subscribed = map[TxID]int{}
	case 7: // checkpoint (even) / rewind (odd)
		if arg%2 == 0 {
			m.ledger.ledgerState.copyInto(&m.savedLedger)
			m.pool.poolState.copyInto(&m.savedPool)
			m.savedNode = m.node.nodeState.clone()
			m.savedOracle = o.clone()
		} else if m.savedOracle != nil {
			m.savedLedger.copyInto(&m.ledger.ledgerState)
			m.savedPool.copyInto(&m.pool.poolState)
			m.node.nodeState = m.savedNode.clone()
			m.oracle = m.savedOracle.clone()
		}
	}
}

// cellsInUse is the cells the table's rows cover; the arena also holds the
// cells rows abandoned when they moved.
func cellsInUse(tab *txTable) int {
	n := 0
	for _, r := range tab.rows {
		n += int(r.n)
	}
	return n
}

func (m *txModel) check() {
	t, o, tab := m.t, m.oracle, m.ledger.txs
	// Rows own disjoint cells inside the arena, and a row that moves at
	// least doubles, so abandoned cells never outnumber live ones.
	owner := make([]int, len(tab.cells))
	for c, r := range tab.rows {
		if r.n != 0 && (r.n&(r.n-1) != 0 || r.base%txRowMinCells != 0) {
			t.Fatalf("row %d: %d cells from base %d", c, r.n, r.base)
		}
		for i := r.off; i < r.off+r.n; i++ {
			if owner[i] != 0 {
				t.Fatalf("cell %d belongs to rows %d and %d", i, owner[i]-1, c)
			}
			owner[i] = c + 1
		}
	}
	if use := cellsInUse(&tab); len(tab.cells) > 2*use {
		t.Fatalf("arena of %d cells for %d in use", len(tab.cells), use)
	}
	for i, cell := range tab.cells {
		if cell&txMark != 0 && owner[i] != 0 { // abandoned cells are never read again
			t.Fatalf("cell %d keeps a first-sight mark between steps (state %#x)", i, cell)
		}
	}
	stateful := 0
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
		if got := state&txSubscribed != 0; got != (o.subscribed[id] > 0) || len(m.node.subscribers[id]) != o.subscribed[id] {
			t.Fatalf("%v: subscribed bit %v over %d subscribers, oracle %d", id, got, len(m.node.subscribers[id]), o.subscribed[id])
		}
		wantH, wantOK := o.committed[id]
		if h, ok := m.ledger.Committed(id); ok != wantOK || h != wantH {
			t.Fatalf("%v: Committed = (%d, %v), oracle (%d, %v)", id, h, ok, wantH, wantOK)
		}
	}
	// Nothing but the universe was ever written: a cell between two ids of
	// the sparse family, or beside a row, holds no state.
	for i, cell := range tab.cells {
		if cell != 0 && owner[i] != 0 {
			stateful--
		}
	}
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
		for c, want := range map[int]uint32{0: 128, 1: 128, 2: 128, 3: 128, highClient: 256, lowClient: 256} {
			if got := tab.rows[c].n; got < want {
				t.Fatalf("seed %d: row %d only grew to %d cells; the stream must cross every doubling up to %d", seed, c, got, want)
			}
		}
		if tab.rows[4].n != 0 {
			t.Fatalf("seed %d: the client nobody used holds %d cells", seed, tab.rows[4].n)
		}
		if r := tab.rows[highClient]; r.base > highBase || r.base+r.n <= highBase || r.n > 1024 {
			t.Fatalf("seed %d: the high family's row is %+v, want its span and no more around %d", seed, r, highBase)
		}
		if len(tab.cells) == cellsInUse(tab) {
			t.Fatalf("seed %d: no row ever moved", seed)
		}
	}
}

// TestTxTableRowsGrowIndependently runs one client to sequence 50,000 beside
// one that stops at 3: the short row stays four cells, and the arena holds
// less than twice the cells in use however the two interleave.
func TestTxTableRowsGrowIndependently(t *testing.T) {
	var tab txTable
	for s := uint32(0); s <= 50_000; s++ {
		*tab.slot(MakeTxID(0, s)) |= (s + 1) << txHeightShift
		if s <= 3 {
			*tab.slot(MakeTxID(1, s)) |= txPooled
		}
		if s == 40_000 { // a late client lands behind the long row, which then moves past it
			*tab.slot(MakeTxID(2, 7)) |= txPipeline
		}
	}
	if got := tab.rows[1]; got.n != 4 || got.base != 0 {
		t.Fatalf("the short client's row is %+v", got)
	}
	if got := tab.rows[2]; got.n != txRowMinCells || got.base != 7&^(txRowMinCells-1) {
		t.Fatalf("the late client's row is %+v", got)
	}
	if use := cellsInUse(&tab); tab.rows[0].n != 1<<16 || len(tab.cells) > 2*use {
		t.Fatalf("long row %d cells, arena %d cells for %d in use", tab.rows[0].n, len(tab.cells), use)
	}
	for s := uint32(0); s <= 50_000; s += 997 {
		if h, ok := committedHeight(tab.state(MakeTxID(0, s))); !ok || h != int(s) {
			t.Fatalf("tx0.%d reads (%d, %v)", s, h, ok)
		}
	}
	if tab.state(MakeTxID(1, 3)) != txPooled || tab.state(MakeTxID(2, 7)) != txPipeline {
		t.Fatal("a short row lost its state when the long one moved")
	}
	for _, id := range []TxID{MakeTxID(0, 1<<16), MakeTxID(1, 4), MakeTxID(2, 7-txRowMinCells), MakeTxID(3, 0), MakeTxID(1<<20, 0)} {
		if tab.state(id) != 0 || tab.clear(id, txPooled) != 0 {
			t.Fatalf("%v is outside every row yet has state", id)
		}
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*500 {
			ops = ops[:3*500]
		}
		newTxModel(t).run(ops)
	})
}
