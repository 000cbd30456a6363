package chain

import (
	"slices"
	"sync"
)

// The account table is one structure per chain, not per validator: every
// replica executes the same decided blocks, so ledgers that applied the same
// blocks from the same genesis hold the same immutable account version, by
// pointer. A version is a directory of fixed-size leaves; a block's child
// version copies each leaf the first time the block writes to it, so the
// leaves the block leaves alone stay shared with the parent. The first ledger
// to apply a block records its child in the deployment's memo, and every
// other ledger whose tip version and block match adopts the child without
// executing anything.

const (
	leafShift = 6
	leafSize  = 1 << leafShift // accounts per leaf: 64, 1 KiB
)

// accountLeaf is one page of the account table.
type accountLeaf [leafSize]account

// accounts is one version of the account table: leaves[i] holds addresses
// i*leafSize up to (i+1)*leafSize-1, and a nil leaf (or one past the
// directory) holds only zero accounts. A version is frozen — immutable, and
// shared by any number of ledgers, checkpoints and the memo — or private to
// the one ledger that writes it. A nil *accounts is the empty frozen version.
type accounts struct {
	leaves []*accountLeaf
	// owned marks, one bit per leaf, the leaves a private version copied
	// and may write; the others are still its parent's. Up to 64 leaves it
	// is owned0, so deriving a version allocates the version and its
	// directory and nothing else.
	owned  []uint64
	owned0 [1]uint64
	frozen bool
}

// get returns addr's account, zero when no leaf holds it.
func (a *accounts) get(addr Address) account {
	i := int(addr >> leafShift)
	if a == nil || i >= len(a.leaves) || a.leaves[i] == nil {
		return account{}
	}
	return a.leaves[i][addr&(leafSize-1)]
}

// private reports whether a may be written in place.
func (a *accounts) private() bool { return a != nil && !a.frozen }

// freeze makes a immutable: from now on it may be shared.
func (a *accounts) freeze() {
	if a.private() {
		a.frozen, a.owned = true, nil
	}
}

// derive returns a private version equal to a that shares all of a's leaves.
func (a *accounts) derive() *accounts {
	d := &accounts{}
	d.owned = d.owned0[:0]
	if a != nil {
		d.leaves = slices.Clone(a.leaves)
		d.owned = append(d.owned, make([]uint64, (len(a.leaves)+63)/64)...)
	}
	return d
}

// write returns addr's account for writing, copying its leaf on the first
// write and growing the directory to reach it. Leaves never move, so the
// pointer stays valid across further writes. a must be private.
func (a *accounts) write(addr Address) *account {
	i := int(addr >> leafShift)
	if i >= len(a.leaves) {
		a.leaves = append(a.leaves, make([]*accountLeaf, i+1-len(a.leaves))...)
	}
	if w := i / 64; w >= len(a.owned) {
		a.owned = append(a.owned, make([]uint64, w+1-len(a.owned))...)
	}
	if bit := uint64(1) << (i % 64); a.owned[i/64]&bit == 0 {
		leaf := new(accountLeaf)
		if old := a.leaves[i]; old != nil {
			*leaf = *old
		}
		a.leaves[i] = leaf
		a.owned[i/64] |= bit
	}
	return &a.leaves[i][addr&(leafSize-1)]
}

// credit adds amount to addr's balance and makes it live.
func (a *accounts) credit(addr Address, amount uint64) {
	acct := a.write(addr)
	acct.balance += amount
	acct.word |= accountLive
}

// Genesis is a deployment's starting state: the genesis account version every
// validator's ledger starts from, the memo through which ledgers that apply
// the same blocks share the versions those blocks produce, and the
// deployment's client count, which sizes a ledger's transaction table once.
// core.Build makes one per experiment.
type Genesis struct {
	accounts *accounts
	memo     *accountMemo
	clients  int
}

// NewGenesis builds the genesis version: every listed account funded (a
// repeated address is credited once per entry) and live. clients is how
// many clients issue transactions (TxID.Client below it); zero leaves the
// transaction tables growing as they go.
func NewGenesis(accts []GenesisAccount, clients int) *Genesis {
	a := (*accounts)(nil).derive()
	for _, g := range accts {
		a.credit(g.Addr, g.Balance)
	}
	a.freeze()
	return &Genesis{accounts: a, memo: &accountMemo{}, clients: clients}
}

// memoHeights bounds the memo to the newest heights: a ledger further
// behind recomputes privately, so no version outlives the ledgers that hold
// it by more than this many blocks.
const memoHeights = 8

// accountMemo maps (parent version, sealed block hash) to the child version
// that block produces from that parent, with the counts that depend on
// balances. It is a pure memo, not Forkable state: a hit returns exactly what
// executing the block would, so hits and misses never change a byte of
// output. slots[h%memoHeights] holds the blocks of height h; two different
// blocks at one height (a fork) are two entries.
type accountMemo struct {
	mu    sync.Mutex //stabl:nodet goroutine-purity -- pure memo shared by one run's validators in different partitions (SimWorkers); see lock
	slots [memoHeights]memoSlot
}

type memoSlot struct {
	height  int
	entries []memoEntry
}

// memoEntry is one applied block. Duplicates are not counted here: a ledger
// reads them from its own transaction table.
type memoEntry struct {
	parent   *accounts
	block    Hash
	child    *accounts
	applied  int // executed transfers
	unfunded int // transfers skipped for insufficient funds
}

// lock takes the memo's mutex and returns the memo, for
// `defer m.lock().unlock()`.
func (m *accountMemo) lock() *accountMemo {
	m.mu.Lock() //stabl:nodet goroutine-purity -- pure memo: whichever ledger records a block's child first, every ledger reads identical balances
	return m
}

func (m *accountMemo) unlock() {
	m.mu.Unlock() //stabl:nodet goroutine-purity -- see lock
}

// lookup returns the entry for block at height applied to parent.
func (m *accountMemo) lookup(parent *accounts, block Hash, height int) (memoEntry, bool) {
	defer m.lock().unlock()
	if s := &m.slots[height%memoHeights]; s.height == height {
		for _, e := range s.entries {
			if e.parent == parent && e.block == block {
				return e, true
			}
		}
	}
	return memoEntry{}, false
}

// record offers e, a block at height whose child version e.child is private
// to the caller, and returns the version the caller's ledger should hold: an
// equal child another ledger recorded first, e.child frozen and recorded, or
// e.child still private when height lags the memo's window.
func (m *accountMemo) record(e memoEntry, height int) *accounts {
	defer m.lock().unlock()
	s := &m.slots[height%memoHeights]
	switch {
	case len(s.entries) > 0 && s.height > height:
		return e.child
	case s.height != height:
		clear(s.entries)
		s.height, s.entries = height, s.entries[:0]
	}
	for _, old := range s.entries {
		if old.parent == e.parent && old.block == e.block {
			return old.child
		}
	}
	e.child.freeze()
	s.entries = append(s.entries, e)
	return e.child
}

// forget drops every entry. A rewound experiment replays heights the memo
// has moved past; forgetting lets its ledgers share again.
func (m *accountMemo) forget() {
	if m == nil {
		return
	}
	defer m.lock().unlock()
	m.slots = [memoHeights]memoSlot{}
}
