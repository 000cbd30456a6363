package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// denseLedger is the account table each ledger kept for itself before
// versions were shared: one dense []account per ledger, grown to the highest
// address credited. The shared ledgers are held to it.
type denseLedger struct {
	accounts []account
	txs      txTable
	applied  uint64
	skipped  uint64
}

func (d *denseLedger) account(addr Address) *account {
	if int(addr) >= len(d.accounts) {
		d.accounts = append(d.accounts, make([]account, int(addr)+1-len(d.accounts))...)
	}
	return &d.accounts[addr]
}

func (d *denseLedger) genesis(accts []GenesisAccount) {
	for _, g := range accts {
		a := d.account(g.Addr)
		a.balance += g.Balance
		a.word |= accountLive
	}
}

func (d *denseLedger) balance(addr Address) uint64 {
	if int(addr) >= len(d.accounts) {
		return 0
	}
	return d.accounts[addr].balance
}

func (d *denseLedger) nextNonce(addr Address) uint64 {
	if int(addr) >= len(d.accounts) {
		return 0
	}
	return d.accounts[addr].nonce()
}

func (d *denseLedger) append(b Block) int {
	applied := d.applied
	height := uint32(b.Height+1) << txHeightShift
	for _, tx := range b.Txs {
		s := d.txs.slot(tx.ID)
		if *s>>txHeightShift != 0 {
			d.skipped++
			continue
		}
		*s |= height
		if d.balance(tx.From) < tx.Amount {
			d.skipped++
			continue
		}
		d.account(max(tx.From, tx.To))
		from, to := &d.accounts[tx.From], &d.accounts[tx.To]
		from.balance -= tx.Amount
		to.balance += tx.Amount
		from.word = accountLive | max(from.nonce(), tx.Nonce+1)
		to.word |= accountLive
		d.applied++
	}
	return int(d.applied - applied)
}

func (d *denseLedger) stateHash() Hash {
	h := sha256.New()
	var buf [8]byte
	for addr, a := range d.accounts {
		if !a.live() {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(addr))
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], a.balance)
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], a.nonce())
		_, _ = h.Write(buf[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

func (d *denseLedger) clone() *denseLedger {
	c := &denseLedger{accounts: slices.Clone(d.accounts), applied: d.applied, skipped: d.skipped}
	d.txs.copyInto(&c.txs)
	return c
}

// sharedAddrs spans four leaves; genesis funds most of the first three and
// leaves every seventh address, and the whole fourth leaf, unfunded.
const sharedAddrs = 4 * leafSize

func sharedGenesis() []GenesisAccount {
	var accts []GenesisAccount
	for a := Address(0); a < 3*leafSize; a++ {
		if a%7 != 3 {
			accts = append(accts, GenesisAccount{a, 1000})
		}
	}
	return accts
}

// sharedBlock is variant v of the block at height h on top of parent: two
// variants are two different blocks at one height. Ids come from a narrow
// space, so blocks repeat transactions within and across heights, and
// amounts reach past what a funded account holds.
func sharedBlock(h, v int, parent Hash) Block {
	rng := rand.New(rand.NewSource(int64(2*h + v)))
	txs := make([]Tx, rng.Intn(24))
	for i := range txs {
		txs[i] = Tx{
			ID:     MakeTxID(uint32(rng.Intn(2)), uint32(rng.Intn(48))),
			From:   Address(rng.Intn(sharedAddrs)),
			To:     Address(rng.Intn(sharedAddrs + leafSize/2)),
			Amount: uint64(rng.Intn(1500)),
			Nonce:  uint64(rng.Intn(40)),
		}
	}
	return Block{Height: h, Parent: parent, Txs: txs}
}

// sharedModel runs several ledgers started from one genesis version beside
// one dense reference each.
type sharedModel struct {
	t      testing.TB
	ledger []*Ledger
	dense  []*denseLedger
	saved  []*ledgerState
	savedD []*denseLedger
}

func newSharedModel(t testing.TB, ledgers int) *sharedModel {
	accts := sharedGenesis()
	g := NewGenesis(accts, 0)
	m := &sharedModel{t: t, saved: make([]*ledgerState, ledgers), savedD: make([]*denseLedger, ledgers)}
	for range ledgers {
		l := NewLedger()
		l.VerifyParents = true
		l.Genesis(g)
		d := &denseLedger{}
		d.genesis(accts)
		m.ledger = append(m.ledger, l)
		m.dense = append(m.dense, d)
	}
	return m
}

// step interprets one three-byte operation on ledger a: append variant b of
// the next block (two opcodes of five, so the ledgers advance), mint,
// checkpoint, restore.
func (m *sharedModel) step(op, a, b byte) {
	i := int(a) % len(m.ledger)
	l, d := m.ledger[i], m.dense[i]
	switch op % 5 {
	case 0, 1:
		blk := sharedBlock(l.Height(), int(b)%2, l.TipHash())
		got, err := l.Append(blk)
		if err != nil {
			m.t.Fatal(err)
		}
		if want := d.append(blk); got != want {
			m.t.Fatalf("ledger %d height %d: Append executed %d, dense %d", i, blk.Height, got, want)
		}
	case 2:
		addr, amount := Address(int(b)*5%(sharedAddrs+leafSize)), uint64(b)
		l.Mint(addr, amount)
		d.genesis([]GenesisAccount{{addr, amount}})
	case 3:
		m.saved[i] = new(ledgerState)
		l.ledgerState.copyInto(m.saved[i])
		m.savedD[i] = d.clone()
	case 4:
		if m.saved[i] != nil {
			l.restore(m.saved[i])
			m.dense[i] = m.savedD[i].clone()
		}
	}
}

func (m *sharedModel) check() {
	for i, l := range m.ledger {
		d := m.dense[i]
		for a := Address(0); a < sharedAddrs+leafSize; a++ {
			if l.Balance(a) != d.balance(a) || l.NextNonce(a) != d.nextNonce(a) {
				m.t.Fatalf("ledger %d account %d: (%d, %d), dense (%d, %d)",
					i, a, l.Balance(a), l.NextNonce(a), d.balance(a), d.nextNonce(a))
			}
		}
		if l.AppliedTxs() != d.applied || l.SkippedTxs() != d.skipped {
			m.t.Fatalf("ledger %d: applied %d skipped %d, dense %d %d", i, l.AppliedTxs(), l.SkippedTxs(), d.applied, d.skipped)
		}
		if l.StateHash() != d.stateHash() {
			m.t.Fatalf("ledger %d: StateHash differs from the dense table's", i)
		}
	}
}

func (m *sharedModel) run(ops []byte) {
	for ; len(ops) >= 3; ops = ops[3:] {
		m.step(ops[0], ops[1], ops[2])
		m.check()
	}
}

// FuzzLedgerShared: ledgers started from one genesis version, under any
// interleaving of appends (two different blocks at each height, duplicate
// and unfunded transfers), mints and checkpoint/restore, read exactly what a
// dense per-ledger table reads after every step.
func FuzzLedgerShared(f *testing.F) {
	f.Add([]byte{})
	// Three ledgers in step on variant 0, then ledger 2 forks to variant 1.
	var lockstep []byte
	for h := 0; h < 6; h++ {
		lockstep = append(lockstep, 0, 0, 0, 0, 1, 0, 0, 2, byte(h/4))
	}
	f.Add(lockstep)
	// Ledger 0 runs past the memo's window before ledger 1 follows it;
	// ledger 2 mints, checkpoints, moves on and rewinds.
	var lag []byte
	for h := 0; h < 2*memoHeights+3; h++ {
		lag = append(lag, 0, 0, 0)
	}
	for h := 0; h < 2*memoHeights+3; h++ {
		lag = append(lag, 1, 1, 0, 0, 2, 0)
		if h == 4 {
			lag = append(lag, 2, 2, 9, 3, 2, 0)
		}
	}
	lag = append(lag, 4, 2, 0, 0, 2, 1, 0, 2, 0)
	f.Add(lag)
	// Checkpoint in step, diverge, rewind everyone and replay.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 3, 0, 0, 3, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 4, 0, 0, 4, 1, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*300 {
			ops = ops[:3*300]
		}
		newSharedModel(t, 3).run(ops)
	})
}

// TestLedgersShareVersions pins what the memo shares: ledgers that applied
// the same blocks hold one version by pointer, a different block at the same
// height makes a different version, and a mint, a ledger lagging past the
// memo's window or an absent memo computes privately.
func TestLedgersShareVersions(t *testing.T) {
	m := newSharedModel(t, 4)
	a, b, c, lag := m.ledger[0], m.ledger[1], m.ledger[2], m.ledger[3]
	if !a.SharesAccounts(b) || !a.SharesAccounts(lag) {
		t.Fatal("ledgers started from one genesis hold different versions")
	}
	for h := 0; h < 3*memoHeights; h++ {
		m.step(0, 0, 0)
		m.step(0, 1, 0)
		m.step(0, 2, byte(h/(2*memoHeights)))
		m.check()
		if !a.SharesAccounts(b) {
			t.Fatalf("height %d: ledgers that applied the same blocks hold different versions", h)
		}
		if forked := h >= 2*memoHeights; a.SharesAccounts(c) == forked {
			t.Fatalf("height %d: sharing with the ledger on the other block is %v", h, !forked)
		}
	}
	for range 3 * memoHeights {
		m.step(0, 3, 0)
		m.check()
	}
	if lag.SharesAccounts(a) {
		t.Fatal("a ledger that lagged past the memo's window adopted a shared version")
	}
	if lag.StateHash() != a.StateHash() {
		t.Fatal("the lagging ledger computed a different state")
	}
	m.step(2, 1, 7)
	m.check()
	if a.SharesAccounts(b) {
		t.Fatal("a mint wrote a shared version")
	}

	// Without a memo every ledger computes privately.
	p, q := NewLedger(), NewLedger()
	for _, l := range []*Ledger{p, q} {
		l.Mint(1, 10)
		if _, err := l.Append(Block{Txs: []Tx{mkTx(0, 0, 1, 2, 3)}}); err != nil {
			t.Fatal(err)
		}
	}
	if p.SharesAccounts(q) || p.StateHash() != q.StateHash() {
		t.Fatal("memo-less ledgers share a version or disagree")
	}
}

// TestLedgerSharingConcurrent applies one chain to ledgers spread over
// goroutines, as the parallel kernel's partitions do: every ledger ends on
// one version, equal to the dense table's. Run it under -race: the memo is
// the one structure the partitions share.
func TestLedgerSharingConcurrent(t *testing.T) {
	const workers, perWorker, heights = 4, 8, 2 * memoHeights
	accts := sharedGenesis()
	g := NewGenesis(accts, 0)
	ref := &denseLedger{}
	ref.genesis(accts)
	var blocks []Block
	tip := Hash{}
	for h := range heights {
		b := sharedBlock(h, 0, tip)
		tip = b.seal()
		ref.append(b)
		blocks = append(blocks, b)
	}
	ledgers := make([]*Ledger, workers*perWorker)
	for i := range ledgers {
		ledgers[i] = NewLedger()
		ledgers[i].Genesis(g)
	}
	// A barrier per height, as the kernel's windows keep partitions within
	// a lookahead of each other.
	for _, b := range blocks {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, l := range ledgers[w*perWorker : (w+1)*perWorker] {
					if _, err := l.Append(b); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for i, l := range ledgers {
		if !l.SharesAccounts(ledgers[0]) {
			t.Fatalf("ledger %d holds its own version", i)
		}
		if l.StateHash() != ref.stateHash() || l.AppliedTxs() != ref.applied || l.SkippedTxs() != ref.skipped {
			t.Fatalf("ledger %d differs from the dense table", i)
		}
	}
}
