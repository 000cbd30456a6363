package chain

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestMempoolFIFO(t *testing.T) {
	m := NewMempool(nil)
	for i := uint32(0); i < 5; i++ {
		if !m.Add(mkTx(0, i, 1, 2, 1)) {
			t.Fatalf("Add(%d) rejected", i)
		}
	}
	got := m.Pop(3)
	if len(got) != 3 {
		t.Fatalf("Pop(3) = %d txs", len(got))
	}
	for i, tx := range got {
		if tx.ID.Seq() != uint32(i) {
			t.Fatalf("pop order broken: %v", got)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestMempoolRejectsDuplicates(t *testing.T) {
	m := NewMempool(nil)
	tx := mkTx(0, 1, 1, 2, 1)
	if !m.Add(tx) || m.Add(tx) {
		t.Fatal("duplicate handling broken")
	}
	_, rejected := m.Stats()
	if rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
}

func TestMempoolRejectsCommitted(t *testing.T) {
	committed := map[TxID]bool{MakeTxID(0, 9): true}
	m := NewMempool(func(id TxID) bool { return committed[id] })
	if m.Add(mkTx(0, 9, 1, 2, 1)) {
		t.Fatal("committed tx accepted")
	}
	if !m.Add(mkTx(0, 10, 1, 2, 1)) {
		t.Fatal("fresh tx rejected")
	}
}

func TestMempoolReAddAfterPop(t *testing.T) {
	m := NewMempool(nil)
	tx := mkTx(0, 1, 1, 2, 1)
	m.Add(tx)
	m.Pop(1)
	if !m.Add(tx) {
		t.Fatal("re-add after pop rejected")
	}
}

func TestMempoolDrop(t *testing.T) {
	m := NewMempool(nil)
	for i := uint32(0); i < 4; i++ {
		m.Add(mkTx(0, i, 1, 2, 1))
	}
	m.Drop([]Tx{mkTx(0, 1, 1, 2, 1), mkTx(0, 3, 1, 2, 1)})
	got := m.Pop(0)
	if len(got) != 2 || got[0].ID.Seq() != 0 || got[1].ID.Seq() != 2 {
		t.Fatalf("after Drop: %v", got)
	}
}

func TestMempoolPeekDoesNotRemove(t *testing.T) {
	m := NewMempool(nil)
	m.Add(mkTx(0, 0, 1, 2, 1))
	if len(m.Peek(5)) != 1 || m.Len() != 1 {
		t.Fatal("Peek removed elements")
	}
	if !m.Contains(MakeTxID(0, 0)) {
		t.Fatal("Contains false after Peek")
	}
}

func TestMempoolClear(t *testing.T) {
	m := NewMempool(nil)
	tx := mkTx(0, 0, 1, 2, 1)
	m.Add(tx)
	m.Clear()
	if m.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	if !m.Add(tx) {
		t.Fatal("re-add after Clear rejected")
	}
}

// Property: pool length always equals inserted minus popped/dropped, and
// never contains duplicates.
func TestPropertyMempoolNoDuplicates(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMempool(nil)
		live := make(map[TxID]bool)
		for _, op := range ops {
			id := uint32(op % 64)
			tx := mkTx(0, id, 1, 2, 1)
			switch (op / 64) % 3 {
			case 0, 1:
				added := m.Add(tx)
				if added == live[tx.ID] { // must add iff not live
					return false
				}
				live[tx.ID] = true
			case 2:
				for _, popped := range m.Pop(1) {
					delete(live, popped.ID)
				}
			}
			if m.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMempool drives the pool with Add/Pop/Drop/Clear/Contains sequences,
// three bytes an operation, against a plain-slice FIFO. After every
// operation it checks order, membership and the counters, and the array
// rule of fitQueue: an empty pool holds no array, and an array of more than
// poolMinCells cells is at least a quarter full.
func FuzzMempool(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 1, 2, 0, 0, 3, 4, 2, 0, 3, 3, 0, 0, 0, 0, 0})
	// Fill well past poolMinCells, drain it by pops and drops, refill.
	f.Add([]byte{0, 0, 63, 0, 64, 63, 0, 128, 63, 1, 0, 20, 2, 0, 150, 4, 160, 0, 1, 0, 30, 1, 0, 0, 0, 9, 9})
	f.Add([]byte{5, 3, 0, 0, 0, 8, 2, 3, 1, 4, 3, 0, 0, 0, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*500 {
			ops = ops[:3*500]
		}
		committed := map[TxID]bool{}
		m := NewMempool(func(id TxID) bool { return committed[id] })
		var ref []TxID            // the FIFO
		var pooled [256 + 64]bool // membership of ref, by sequence
		var added, rejected uint64
		tx := func(seq int) Tx { return mkTx(0, uint32(seq), 1, 2, 1) }
		for len(ops) >= 3 {
			op, a, b := ops[0]%6, int(ops[1]), int(ops[2])
			ops = ops[3:]
			switch op {
			case 0: // add the run a, a+1, …, a+b%64
				for seq := a; seq <= a+b%64; seq++ {
					want := !committed[tx(seq).ID] && !pooled[seq]
					if got := m.Add(tx(seq)); got != want {
						t.Fatalf("Add(%d) = %v, reference %v", seq, got, want)
					}
					if want {
						ref = append(ref, tx(seq).ID)
						pooled[seq] = true
						added++
					} else {
						rejected++
					}
				}
			case 1: // pop b%80 (zero: all), compacting in place
				before := cap(m.queue)
				got := m.Pop(b % 80)
				if q := m.queue; len(q) > 0 && cap(q) != before && cap(q) != 2*len(q) {
					t.Fatalf("Pop left %d of %d cells: neither compacted in place nor refitted", cap(q), before)
				}
				n := len(ref)
				if b%80 != 0 {
					n = min(n, b%80)
				}
				if len(got) != n {
					t.Fatalf("Pop(%d) returned %d, reference %d", b%80, len(got), n)
				}
				for i, tx := range got {
					if tx.ID != ref[i] {
						t.Fatalf("Pop(%d)[%d] = %v, reference %v", b%80, i, tx.ID, ref[i])
					}
					pooled[tx.ID.Seq()] = false
				}
				ref = ref[n:]
			case 2: // drop the run a … a+b-1, pending or not
				var txs []Tx
				for seq := a; seq < a+b; seq++ {
					txs = append(txs, tx(seq))
					if seq < len(pooled) {
						pooled[seq] = false
					}
				}
				m.Drop(txs)
				ref = slices.DeleteFunc(ref, func(id TxID) bool { return int(id.Seq()) >= a && int(id.Seq()) < a+b })
			case 3:
				m.Clear()
				ref, pooled = nil, [len(pooled)]bool{}
			case 4:
				if got, want := m.Contains(tx(a).ID), pooled[a]; got != want {
					t.Fatalf("Contains(%d) = %v, reference %v", a, got, want)
				}
			case 5: // commit a elsewhere: the pool must reject it from now on
				committed[tx(a).ID] = true
			}
			if m.Len() != len(ref) {
				t.Fatalf("Len = %d, reference %d", m.Len(), len(ref))
			}
			for i, tx := range m.Pending() {
				if tx.ID != ref[i] {
					t.Fatalf("Pending()[%d] = %v, reference %v", i, tx.ID, ref[i])
				}
			}
			for seq, want := range pooled {
				if got := m.Contains(tx(seq).ID); got != want {
					t.Fatalf("Contains(%d) = %v, reference %v", seq, got, want)
				}
			}
			if gotAdded, gotRejected := m.Stats(); gotAdded != added || gotRejected != rejected {
				t.Fatalf("Stats = (%d, %d), reference (%d, %d)", gotAdded, gotRejected, added, rejected)
			}
			if q := m.queue; len(q) == 0 && q != nil || cap(q) > poolMinCells && 4*len(q) < cap(q) {
				t.Fatalf("pool of %d holds an array of %d cells", len(q), cap(q))
			}
		}
	})
}
