package chain

import (
	"math/rand"
	"testing"
)

// The transaction table is checked against a map-based oracle by an
// interpreter of three-byte operations (opcode, two argument bytes) over a
// node's real Ledger + Mempool pair sharing one table — the layout
// NewBaseNode builds. TestTxTableModel feeds it long random streams;
// FuzzTxTable lets the fuzzer write the stream.

const txUniverse = 1024

// txHashInverse is K^-1 mod 2^64 for the table's hash multiplier K: the hash
// is id * K, so id = h * K^-1 hashes to h. Ids built from hashes that share
// their top 32 bits share a home slot at every table size the tests reach.
var txHashInverse = func() uint64 {
	const k = 0x9E3779B97F4A7C15
	inv := uint64(k) // Newton: each step doubles the correct low bits
	for i := 0; i < 6; i++ {
		inv *= 2 - k*inv
	}
	return inv
}()

// universeID maps an index to a TxID: the lower half are ordinary
// (client, seq) ids, the upper half all share one home slot.
func universeID(i int) TxID {
	i %= txUniverse
	if i < txUniverse/2 {
		return MakeTxID(uint32(i%4), uint32(i/4))
	}
	return TxID((0xABCD1234<<32 | uint64(i)) * txHashInverse)
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
	seen      map[TxID]bool // ids that ever claimed a slot
}

func newTxOracle() *txOracle {
	return &txOracle{
		pooled:    map[TxID]bool{},
		pipeline:  map[TxID]bool{},
		committed: map[TxID]int{},
		seen:      map[TxID]bool{},
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
	for k, v := range o.seen {
		c.seen[k] = v
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
	ledger *Ledger
	pool   *Mempool
	oracle *txOracle

	savedLedger ledgerState
	savedPool   poolState
	savedOracle *txOracle
}

func newTxModel(t testing.TB) *txModel {
	l := NewLedger()
	return &txModel{t: t, ledger: l, pool: &Mempool{txs: &l.txs}, oracle: newTxOracle()}
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
	case 0, 1: // add
		tx := universeTx(arg)
		_, isCommitted := o.committed[tx.ID]
		want := !o.pooled[tx.ID] && !isCommitted
		if got := m.pool.Add(tx); got != want {
			t.Fatalf("Add(%v) = %v, oracle says %v", tx.ID, got, want)
		}
		o.seen[tx.ID] = true
		if want {
			o.pooled[tx.ID] = true
			o.queue = append(o.queue, tx.ID)
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
			o.seen[tx.ID] = true
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
			o.seen[tx.ID] = true
			delete(o.pipeline, tx.ID)
			drop[tx.ID] = true
			m.ledger.txs.clear(tx.ID, txPipeline)
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
		m.ledger.txs.sweep(txPipeline)
		o.queue = nil
		o.pooled = map[TxID]bool{}
		o.pipeline = map[TxID]bool{}
	case 7: // checkpoint (even) / rewind (odd)
		if arg%2 == 0 {
			m.ledger.ledgerState.copyInto(&m.savedLedger)
			m.pool.poolState.copyInto(&m.savedPool)
			m.savedOracle = o.clone()
		} else if m.savedOracle != nil {
			m.savedLedger.copyInto(&m.ledger.ledgerState)
			m.savedPool.copyInto(&m.pool.poolState)
			m.oracle = m.savedOracle.clone()
		}
	}
}

func (m *txModel) check() {
	t, o, tab := m.t, m.oracle, m.ledger.txs
	if tab.used != len(o.seen) {
		t.Fatalf("table holds %d entries, oracle %d", tab.used, len(o.seen))
	}
	if n := len(tab.slots); n != 0 && (n&(n-1) != 0 || tab.used >= n) {
		t.Fatalf("table of %d slots holds %d entries", n, tab.used)
	}
	for i := 0; i < txUniverse; i++ {
		id := universeID(i)
		state := tab.state(id)
		if (state != 0) != o.seen[id] {
			t.Fatalf("%v: state %#x, oracle seen=%v", id, state, o.seen[id])
		}
		if got := state&txPooled != 0; got != o.pooled[id] || got != m.pool.Contains(id) {
			t.Fatalf("%v: pooled bit %v, Contains %v, oracle %v", id, got, m.pool.Contains(id), o.pooled[id])
		}
		if got := state&txPipeline != 0; got != o.pipeline[id] {
			t.Fatalf("%v: pipeline bit %v, oracle %v", id, got, o.pipeline[id])
		}
		wantH, wantOK := o.committed[id]
		if h, ok := m.ledger.Committed(id); ok != wantOK || h != wantH {
			t.Fatalf("%v: Committed = (%d, %v), oracle (%d, %v)", id, h, ok, wantH, wantOK)
		}
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
		if got := len(m.ledger.txs.slots); got < 1024 {
			t.Fatalf("seed %d: table only grew to %d slots; the stream must cross every boundary up to 1024", seed, got)
		}
	}
}

// TestTxTableCollidingHomes fills a table with ids that all share a home
// slot, through several doublings, and checks every one stays reachable.
func TestTxTableCollidingHomes(t *testing.T) {
	var tab txTable
	const n = 200
	for i := 0; i < n; i++ {
		id := universeID(txUniverse/2 + i)
		if i > 0 && tab.home(id) != tab.home(universeID(txUniverse/2)) {
			t.Fatalf("id %d does not collide", i)
		}
		*tab.slot(id) |= uint32(i+1) << txHeightShift
	}
	for i := 0; i < n; i++ {
		if h, ok := committedHeight(tab.state(universeID(txUniverse/2 + i))); !ok || h != i {
			t.Fatalf("entry %d reads (%d, %v)", i, h, ok)
		}
	}
	if tab.state(universeID(0)) != 0 || tab.clear(universeID(0), txPooled) != 0 {
		t.Fatal("absent id has state")
	}
	if tab.used != n {
		t.Fatalf("used = %d", tab.used)
	}
}

func FuzzTxTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 0, 0, 0, 1}) // add, re-add, pop all, add again
	f.Add([]byte{0, 0, 5, 3, 0, 5, 7, 0, 0, 4, 0, 5, 6, 0, 0, 7, 0, 1, 0, 0, 5})
	// Fill past several growth boundaries with colliding ids, then commit,
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
