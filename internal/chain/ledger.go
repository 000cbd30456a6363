package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"
)

// Ledger is a validator's copy of the committed chain. It deterministically
// executes native transfers, tracks per-account balances and nonces, and
// deduplicates transactions so that a transaction redundantly submitted to
// several validators (the secure client of STABL §7) executes exactly once.
//
// The account table is an immutable version shared by every ledger that
// applied the same blocks from the same Genesis (see accounts.go); the
// transaction table is the ledger's own.
//
// The ledger is the node's persistent state: it survives crash/restart.
type Ledger struct {
	ledgerState
	// memo is the deployment's shared memo (nil: compute privately).
	memo *memo
	// VerifyParents enables hash-chain verification on Append (the
	// harness enables it everywhere; tests may relax it).
	VerifyParents bool
}

// ledgerState is what a Ledger mutates after construction, and its
// checkpoint. A node's whole per-transaction state — committed heights,
// in-pool and in-pipeline marks — is the ledger's table, so the ledger
// checkpoint carries all three and the pool's is just its queue.
type ledgerState struct {
	blocks []Block // sealed: each carries the hash Append verified its successor against
	// txs records every committed transaction's height — the dedup set.
	// The node's mempool and execution pipeline keep their volatile
	// per-transaction bits in the same table (see txTable) and reach it
	// through a pointer to this field, which a restore copies into.
	txs txTable
	// accounts is the current account version, indexed by Address (dense
	// by contract, see Address).
	accounts *accounts
	applied  uint64
	skipped  uint64
}

// account is one entry of the account table, in 16 bytes. The accountLive
// bit of word marks the addresses that ever held funds or took part in an
// executed transfer — exactly the accounts StateHash covers; an address a
// leaf merely holds is not one. The bits below it hold the next expected
// nonce, so maxNonce is the highest nonce Append takes.
type account struct {
	balance uint64
	word    uint64
}

const (
	accountLive = 1 << 63
	maxNonce    = accountLive - 2
)

// nonce returns the account's next expected nonce.
func (a account) nonce() uint64 { return a.word &^ accountLive }

// live reports whether StateHash covers the account.
func (a account) live() bool { return a.word&accountLive != 0 }

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{}
}

// Genesis starts an empty ledger from g's account version and shares the
// versions its blocks produce with every other ledger started from g; its
// transaction table takes one row per client of g at its first transaction.
// A nil g leaves the ledger empty.
func (l *Ledger) Genesis(g *Genesis) {
	if g != nil {
		l.accounts, l.memo, l.txs.clients = g.accounts, g.memo, g.clients
	}
}

// own returns the ledger's account version for writing, deriving a private
// one from a shared version first.
func (l *Ledger) own() *accounts {
	if !l.accounts.private() {
		l.accounts = l.accounts.derive()
	}
	return l.accounts
}

// Mint credits one account out of thin air. The ledger's account version
// becomes its own.
func (l *Ledger) Mint(addr Address, amount uint64) { l.own().credit(addr, amount) }

// Height returns the number of committed blocks.
func (l *Ledger) Height() int { return len(l.blocks) }

// Committed reports whether tx has been committed, and at which height.
func (l *Ledger) Committed(id TxID) (int, bool) {
	return committedHeight(l.txs.state(id))
}

// Balance returns the current balance of an account.
func (l *Ledger) Balance(addr Address) uint64 { return l.accounts.get(addr).balance }

// NextNonce returns the next expected nonce for an account.
func (l *Ledger) NextNonce(addr Address) uint64 { return l.accounts.get(addr).nonce() }

// SharesAccounts reports whether l and o hold the same account version.
func (l *Ledger) SharesAccounts(o *Ledger) bool { return l.accounts == o.accounts }

// AppliedTxs returns how many transactions executed successfully.
func (l *Ledger) AppliedTxs() uint64 { return l.applied }

// SkippedTxs returns how many transactions were skipped as duplicates or for
// insufficient funds.
func (l *Ledger) SkippedTxs() uint64 { return l.skipped }

// Block returns the committed block at the given height.
func (l *Ledger) Block(height int) (Block, error) {
	if height < 0 || height >= len(l.blocks) {
		return Block{}, fmt.Errorf("ledger: no block at height %d (height=%d)", height, len(l.blocks))
	}
	return l.blocks[height], nil
}

// BlocksFrom returns up to max committed blocks starting at height from.
func (l *Ledger) BlocksFrom(from, max int) []Block {
	if from < 0 {
		from = 0
	}
	if from >= len(l.blocks) {
		return nil
	}
	end := from + max
	if max <= 0 || end > len(l.blocks) {
		end = len(l.blocks)
	}
	out := make([]Block, end-from)
	copy(out, l.blocks[from:end])
	return out
}

// Append commits a block at the next height, executing its transactions.
// It returns how many of them executed (were neither duplicates nor
// unfunded). Appending a block whose height is not the current chain
// height, or (with VerifyParents) whose parent link does not match the
// chain tip, is a protocol error; so is growing the chain past the height
// the transaction table can record, or a transaction nonce past the
// maxNonce the account table can record. A block that fails changes
// nothing.
//
// When another ledger already applied this block to this ledger's account
// version, Append adopts that ledger's child version and only marks its own
// transaction table; otherwise it executes the block and offers the child
// to the memo.
func (l *Ledger) Append(b Block) (int, error) {
	if b.Height > maxTxHeight {
		return 0, fmt.Errorf("ledger: height %d is past the %d blocks a ledger can record", b.Height, maxTxHeight+1)
	}
	if b.Height != len(l.blocks) {
		return 0, fmt.Errorf("ledger: append height %d, want %d", b.Height, len(l.blocks))
	}
	if l.VerifyParents && b.Parent != l.TipHash() {
		return 0, fmt.Errorf("ledger: block %d parent %v does not extend tip %v",
			b.Height, b.Parent, l.TipHash())
	}
	for _, tx := range b.Txs {
		if tx.Nonce > maxNonce {
			return 0, fmt.Errorf("ledger: %v nonce %d is past the %d a ledger can record", tx.ID, tx.Nonce, uint64(maxNonce))
		}
	}
	b.seal() // a no-op for a block that came through BaseNode.SubmitBlock
	height := uint32(b.Height+1) << txHeightShift
	// A shared version may have a child for this block already; a block
	// that executes nothing leaves the version as it was.
	shared := l.memo != nil && !l.accounts.private()
	e := memoEntry{parent: l.accounts, block: b.hash}
	hit := shared && l.memo.version(&e, b.Height, false)
	dups := 0
	for _, tx := range b.Txs {
		s := l.txs.slot(tx.ID)
		if *s>>txHeightShift != 0 {
			dups++
			continue
		}
		*s |= height
		if hit {
			continue
		}
		if l.accounts.get(tx.From).balance < tx.Amount {
			e.unfunded++
			continue
		}
		acc := l.own()
		from := acc.write(tx.From)
		from.balance -= tx.Amount
		from.word = accountLive | max(from.nonce(), tx.Nonce+1)
		to := acc.write(tx.To)
		to.balance += tx.Amount
		to.word |= accountLive
		e.applied++
	}
	switch {
	case hit:
		if dups+e.applied+e.unfunded != len(b.Txs) {
			panic("chain: a ledger's dedup set disagrees with the ledgers it shares its account version with")
		}
		l.accounts = e.child
	case shared:
		e.child = l.accounts
		l.memo.version(&e, b.Height, true)
		l.accounts = e.child
	}
	l.applied += uint64(e.applied)
	l.skipped += uint64(dups + e.unfunded)
	l.blocks = append(l.blocks, b)
	return e.applied, nil
}

// TipHash returns the content address of the latest block (zero at genesis).
func (l *Ledger) TipHash() Hash {
	if len(l.blocks) == 0 {
		return Hash{}
	}
	return l.blocks[len(l.blocks)-1].hash
}

// BlockHash returns the stored content address of the block at a height.
func (l *Ledger) BlockHash(height int) (Hash, error) {
	if height < 0 || height >= len(l.blocks) {
		return Hash{}, fmt.Errorf("ledger: no block hash at height %d", height)
	}
	return l.blocks[height].hash, nil
}

// VerifyChain re-validates the whole hash chain from content: every block's
// carried hash matches what its fields hash to now, and every parent link
// matches the previous hash.
func (l *Ledger) VerifyChain() error {
	prev := Hash{}
	for i, b := range l.blocks {
		if got := HashBlock(b); got != b.hash {
			return fmt.Errorf("ledger: block %d content hash mismatch", i)
		}
		if b.Parent != prev {
			return fmt.Errorf("ledger: block %d parent link broken", i)
		}
		prev = b.hash
	}
	return nil
}

// StateHash computes the accounts hash: a digest over every live account's
// balance and nonce in address order. Solana's Epoch Accounts Hash is this
// computation at an epoch-defined snapshot point.
func (l *Ledger) StateHash() Hash {
	h := sha256.New()
	var buf [8]byte
	var leaves []*accountLeaf
	if l.accounts != nil {
		leaves = l.accounts.leaves
	}
	for i, leaf := range leaves {
		if leaf == nil {
			continue
		}
		for j := range leaf {
			a := &leaf[j]
			if !a.live() {
				continue
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(i<<leafShift+j))
			_, _ = h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], a.balance)
			_, _ = h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], a.nonce())
			_, _ = h.Write(buf[:])
		}
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// LastDecidedAt returns the decision time of the latest block, or zero.
func (l *Ledger) LastDecidedAt() time.Duration {
	if len(l.blocks) == 0 {
		return 0
	}
	return l.blocks[len(l.blocks)-1].DecidedAt
}
