package chain

import "slices"

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
// validator's ledger starts from, the memo through which validators share the
// blocks they seal and the versions those blocks produce (memo.go), and the
// deployment's client count, which sizes a ledger's transaction table once.
// core.Build makes one per experiment.
type Genesis struct {
	accounts *accounts
	memo     *memo
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
	return &Genesis{accounts: a, memo: &memo{}, clients: clients}
}
