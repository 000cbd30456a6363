package chain

import (
	"slices"
	"sync"
)

// memoHeights bounds the memo to the newest heights: a validator further
// behind computes privately, so no entry outlives the ledgers that hold it by
// more than this many blocks.
const memoHeights = 8

// memo is what the validators of one deployment compute once between them:
// the blocks they seal (sealBlock) and the account version each block
// produces from its parent (version). It is a pure memo, not Forkable
// state: a hit returns exactly what computing would, so hits and misses never
// change a byte of output, and a restore only forgets it.
// slots[h%memoHeights] holds height h; two blocks at one height (a fork) are
// two entries.
type memo struct {
	mu    sync.Mutex //stabl:nodet goroutine-purity -- pure memo shared by one run's validators in different partitions (SimWorkers); see lock
	slots [memoHeights]memoSlot
}

type memoSlot struct {
	height  int
	entries []memoEntry
	blocks  []memoBlock
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

// memoBlock is one sealed block, keyed by its header and the identity (first
// element's address, length) of each list it was built from: the lists
// merged into it, or its own transactions. A hit is exact: lists are
// immutable once sent, a sealed block must not be modified, and the entry
// keeps its arrays alive, so no address is reused while it lives. A
// content-equal list in another array just misses. A merge hit skips Merge's
// marking pass; SubmitBlock marks the same transactions next, in the order
// that pass first met them, so the node's table grows the same rows.
type memoBlock struct {
	block  Block // sealed; DecidedAt is not part of the key
	merged bool  // block.Txs is Merge(lists), not lists[0] itself
	lists  [][]Tx
}

// lock takes the memo's mutex and returns the memo, for
// `defer m.lock().unlock()`.
func (m *memo) lock() *memo {
	m.mu.Lock() //stabl:nodet goroutine-purity -- pure memo: whichever validator records an entry first, every validator reads identical values
	return m
}

func (m *memo) unlock() {
	m.mu.Unlock() //stabl:nodet goroutine-purity -- see lock
}

// slot returns height's slot, or nil. To record, it empties a slot of an
// older height and refuses one of a newer. The caller holds the lock.
func (m *memo) slot(height int, record bool) *memoSlot {
	s := &m.slots[height%memoHeights]
	switch {
	case s.height == height:
		return s
	case !record || s.height > height && len(s.entries)+len(s.blocks) > 0:
		return nil
	}
	clear(s.entries)
	clear(s.blocks)
	s.height, s.entries, s.blocks = height, s.entries[:0], s.blocks[:0]
	return s
}

// version gives e the entry recorded for its (parent, block) at height.
// When there is none and record is set, it records e, whose child version is
// private to the caller, frozen — unless height lags the memo's window, where
// the child stays private.
func (m *memo) version(e *memoEntry, height int, record bool) bool {
	defer m.lock().unlock()
	s := m.slot(height, record)
	if s == nil {
		return false
	}
	for _, old := range s.entries {
		if old.parent == e.parent && old.block == e.block {
			*e = old
			return true
		}
	}
	if record {
		e.child.freeze()
		s.entries = append(s.entries, *e)
	}
	return false
}

// sealBlock seals b, first merging lists through node's table into b's
// transactions when node is set: the first validator to seal a key computes
// and records it, the others take its transactions and hash.
func (m *memo) sealBlock(b *Block, lists [][]Tx, node *BaseNode) {
	if node == nil {
		if b.sealed {
			return
		}
		lists = [][]Tx{b.Txs}
	}
	if !m.adopt(b, lists, node != nil, false) {
		if node != nil {
			b.Txs = node.Merge(lists)
		}
		b.seal()
		m.adopt(b, lists, node != nil, true)
	}
}

// adopt gives b the transactions and hash recorded under its key, or, when
// there are none and record is set, records sealed b.
func (m *memo) adopt(b *Block, lists [][]Tx, merged, record bool) bool {
	if m == nil {
		return false
	}
	defer m.lock().unlock()
	s := m.slot(b.Height, record)
	if s == nil {
		return false
	}
	for _, e := range s.blocks {
		if e.block.Proposer == b.Proposer && e.block.Parent == b.Parent && e.merged == merged && slices.EqualFunc(e.lists, lists, sameList) {
			b.Txs, b.hash, b.sealed = e.block.Txs, e.block.hash, true
			return true
		}
	}
	if record {
		s.blocks = append(s.blocks, memoBlock{*b, merged, slices.Clone(lists)})
	}
	return false
}

// sameList reports whether a and b are one list: equal lengths over one array.
func sameList(a, b []Tx) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// forget drops every entry: a rewound experiment replays heights the memo
// has moved past, and forgetting lets its validators share again.
func (m *memo) forget() {
	if m == nil {
		return
	}
	defer m.lock().unlock()
	m.slots = [memoHeights]memoSlot{}
}
