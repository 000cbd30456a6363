package chain

import (
	"testing"
	"testing/quick"
	"time"
)

func mkTx(client, seq uint32, from, to Address, amount uint64) Tx {
	return Tx{
		ID:     MakeTxID(client, seq),
		From:   from,
		To:     to,
		Amount: amount,
		Nonce:  uint64(seq),
	}
}

func TestTxIDRoundTrip(t *testing.T) {
	id := MakeTxID(3, 77)
	if id.Client() != 3 || id.Seq() != 77 {
		t.Fatalf("round trip broken: %v -> (%d,%d)", id, id.Client(), id.Seq())
	}
}

func TestLedgerAppendExecutesTransfers(t *testing.T) {
	l := NewLedger()
	l.Mint(1, 100)
	tx := mkTx(0, 0, 1, 2, 30)
	executed, err := l.Append(Block{Height: 0, Txs: []Tx{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 1 {
		t.Fatalf("executed %d txs, want 1", executed)
	}
	if l.Balance(1) != 70 || l.Balance(2) != 30 {
		t.Fatalf("balances = %d,%d", l.Balance(1), l.Balance(2))
	}
	if h, ok := l.Committed(tx.ID); !ok || h != 0 {
		t.Fatalf("Committed = %d,%v", h, ok)
	}
	if l.NextNonce(1) != 1 {
		t.Fatalf("NextNonce = %d, want 1", l.NextNonce(1))
	}
}

func TestLedgerRejectsWrongHeight(t *testing.T) {
	l := NewLedger()
	if _, err := l.Append(Block{Height: 1}); err == nil {
		t.Fatal("append at wrong height succeeded")
	}
}

func TestLedgerDeduplicatesAcrossBlocks(t *testing.T) {
	l := NewLedger()
	l.Mint(1, 100)
	tx := mkTx(0, 0, 1, 2, 10)
	if _, err := l.Append(Block{Height: 0, Txs: []Tx{tx}}); err != nil {
		t.Fatal(err)
	}
	executed, err := l.Append(Block{Height: 1, Txs: []Tx{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatal("duplicate executed twice")
	}
	if l.Balance(2) != 10 {
		t.Fatalf("duplicate transferred twice: balance=%d", l.Balance(2))
	}
	if l.SkippedTxs() != 1 {
		t.Fatalf("SkippedTxs = %d, want 1", l.SkippedTxs())
	}
}

func TestLedgerInsufficientFundsSkipsButCommits(t *testing.T) {
	l := NewLedger()
	tx := mkTx(0, 0, 1, 2, 10) // account 1 unfunded
	executed, err := l.Append(Block{Height: 0, Txs: []Tx{tx}})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatal("unfunded transfer executed")
	}
	if _, ok := l.Committed(tx.ID); !ok {
		t.Fatal("skipped tx should still be recorded as committed (it was included)")
	}
}

func TestLedgerBlocksFrom(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(Block{Height: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := l.BlocksFrom(2, 2)
	if len(got) != 2 || got[0].Height != 2 || got[1].Height != 3 {
		t.Fatalf("BlocksFrom(2,2) = %+v", got)
	}
	if got := l.BlocksFrom(10, 2); got != nil {
		t.Fatalf("BlocksFrom past head = %+v", got)
	}
	if got := l.BlocksFrom(3, 0); len(got) != 2 {
		t.Fatalf("BlocksFrom(3,0) = %+v, want rest of chain", got)
	}
	if got := l.BlocksFrom(-1, 1); len(got) != 1 || got[0].Height != 0 {
		t.Fatalf("BlocksFrom(-1,1) = %+v", got)
	}
}

func TestLedgerBlockAccessor(t *testing.T) {
	l := NewLedger()
	if _, err := l.Block(0); err == nil {
		t.Fatal("Block(0) on empty ledger succeeded")
	}
	if _, err := l.Append(Block{Height: 0, DecidedAt: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	b, err := l.Block(0)
	if err != nil || b.DecidedAt != 3*time.Second {
		t.Fatalf("Block(0) = %+v, %v", b, err)
	}
	if l.LastDecidedAt() != 3*time.Second {
		t.Fatalf("LastDecidedAt = %v", l.LastDecidedAt())
	}
}

// Property: total balance is conserved by any sequence of transfers between
// funded accounts.
func TestPropertyLedgerConservation(t *testing.T) {
	f := func(transfers []uint8) bool {
		l := NewLedger()
		const accounts = 4
		var total uint64
		for a := Address(0); a < accounts; a++ {
			l.Mint(a, 1000)
			total += 1000
		}
		txs := make([]Tx, 0, len(transfers))
		for i, raw := range transfers {
			from := Address(raw % accounts)
			to := Address((raw / accounts) % accounts)
			txs = append(txs, Tx{
				ID:     MakeTxID(0, uint32(i)),
				From:   from,
				To:     to,
				Amount: uint64(raw),
			})
		}
		if _, err := l.Append(Block{Height: 0, Txs: txs}); err != nil {
			return false
		}
		var sum uint64
		for a := Address(0); a < accounts; a++ {
			sum += l.Balance(a)
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: appending the same tx set twice never double-executes.
func TestPropertyLedgerIdempotentCommits(t *testing.T) {
	f := func(seqs []uint16) bool {
		l := NewLedger()
		l.Mint(1, 1<<40)
		txs := make([]Tx, 0, len(seqs))
		seen := make(map[TxID]bool)
		for _, s := range seqs {
			tx := mkTx(0, uint32(s), 1, 2, 1)
			if !seen[tx.ID] {
				seen[tx.ID] = true
				txs = append(txs, tx)
			}
		}
		if _, err := l.Append(Block{Height: 0, Txs: txs}); err != nil {
			return false
		}
		if _, err := l.Append(Block{Height: 1, Txs: txs}); err != nil {
			return false
		}
		return l.Balance(2) == uint64(len(txs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGenesisEqualsMints: one genesis version over an unsorted list with a
// gap and a repeated address funds exactly what minting each entry does, in
// a directory that reaches the highest address's leaf and no further.
func TestGenesisEqualsMints(t *testing.T) {
	accts := []GenesisAccount{{9, 5}, {2, 7}, {9, 1}, {0, 3}, {leafSize + 1, 4}}
	g, m := NewLedger(), NewLedger()
	g.Genesis(NewGenesis(accts, 0))
	for _, a := range accts {
		m.Mint(a.Addr, a.Balance)
	}
	if tableSize(g) != 2*leafSize {
		t.Fatalf("account table of %d entries, want %d", tableSize(g), 2*leafSize)
	}
	for a := Address(0); a < 2*leafSize+1; a++ {
		if g.Balance(a) != m.Balance(a) {
			t.Fatalf("account %d: %d after Genesis, %d after Mint", a, g.Balance(a), m.Balance(a))
		}
	}
	if g.Balance(9) != 6 || g.StateHash() != m.StateHash() {
		t.Fatalf("balance(9) = %d; state hashes %v, %v", g.Balance(9), g.StateHash(), m.StateHash())
	}
}
