package chain

import (
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
