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
// The ledger is the node's persistent state: it survives crash/restart.
type Ledger struct {
	ledgerState
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
	// through a pointer to this field.
	txs txTable
	// accounts is indexed by Address (dense by contract, see Address).
	accounts []account
	applied  uint64
	skipped  uint64
}

// account is one entry of the ledger's account table. live marks the
// addresses that ever held funds or took part in an executed transfer —
// exactly the accounts StateHash covers; an address the slice merely grew
// past is not one.
type account struct {
	balance uint64
	nonce   uint64 // next expected nonce
	live    bool
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{}
}

// account returns addr's entry, growing the table (amortised) to reach it.
func (l *Ledger) account(addr Address) *account {
	if int(addr) >= len(l.accounts) {
		l.accounts = append(l.accounts, make([]account, int(addr)+1-len(l.accounts))...)
	}
	return &l.accounts[addr]
}

// Mint credits an account out of thin air; used to fund workload accounts at
// genesis.
func (l *Ledger) Mint(addr Address, amount uint64) {
	a := l.account(addr)
	a.balance += amount
	a.live = true
}

// Height returns the number of committed blocks.
func (l *Ledger) Height() int { return len(l.blocks) }

// Committed reports whether tx has been committed, and at which height.
func (l *Ledger) Committed(id TxID) (int, bool) {
	return committedHeight(l.txs.state(id))
}

// Balance returns the current balance of an account.
func (l *Ledger) Balance(addr Address) uint64 {
	if int(addr) >= len(l.accounts) {
		return 0
	}
	return l.accounts[addr].balance
}

// NextNonce returns the next expected nonce for an account.
func (l *Ledger) NextNonce(addr Address) uint64 {
	if int(addr) >= len(l.accounts) {
		return 0
	}
	return l.accounts[addr].nonce
}

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
// It returns the transactions that executed (i.e. were not duplicates).
// Appending a block whose height is not the current chain height, or (with
// VerifyParents) whose parent link does not match the chain tip, is a
// protocol error; so is growing the chain past the height the transaction
// table can record.
func (l *Ledger) Append(b Block) ([]Tx, error) {
	if b.Height > maxTxHeight {
		return nil, fmt.Errorf("ledger: height %d is past the %d blocks a ledger can record", b.Height, maxTxHeight+1)
	}
	if b.Height != len(l.blocks) {
		return nil, fmt.Errorf("ledger: append height %d, want %d", b.Height, len(l.blocks))
	}
	if l.VerifyParents && b.Parent != l.TipHash() {
		return nil, fmt.Errorf("ledger: block %d parent %v does not extend tip %v",
			b.Height, b.Parent, l.TipHash())
	}
	executed := make([]Tx, 0, len(b.Txs))
	height := uint32(b.Height+1) << txHeightShift
	for _, tx := range b.Txs {
		s := l.txs.slot(tx.ID)
		if *s>>txHeightShift != 0 {
			l.skipped++
			continue
		}
		*s |= height
		if l.Balance(tx.From) < tx.Amount {
			l.skipped++
			continue
		}
		l.account(max(tx.From, tx.To)) // size once: from and to stay valid together
		from, to := &l.accounts[tx.From], &l.accounts[tx.To]
		from.balance -= tx.Amount
		to.balance += tx.Amount
		from.live, to.live = true, true
		if tx.Nonce >= from.nonce {
			from.nonce = tx.Nonce + 1
		}
		l.applied++
		executed = append(executed, tx)
	}
	b.seal() // a no-op for a block that came through BaseNode.SubmitBlock
	l.blocks = append(l.blocks, b)
	return executed, nil
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
	for addr, a := range l.accounts {
		if !a.live {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(addr))
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], a.balance)
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], a.nonce)
		_, _ = h.Write(buf[:])
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
