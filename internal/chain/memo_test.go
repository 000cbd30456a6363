package chain

import (
	"fmt"
	"slices"
	"testing"

	"stabl/internal/simnet"
)

// memoModel drives one deployment's memo through its validators' MergeBlock
// and sealing, and holds every block it returns to a reference: Merge as a
// map loop plus HashBlock for the content, and a map per height window for
// what the memo must share. Transaction lists come from a fixed pool of
// arrays, named by (array, start, length), so identity is the test's own
// notion and not the memo's.
type memoModel struct {
	t     testing.TB
	nodes []*BaseNode
	pool  [3][]Tx
	// slots mirrors the memo's window: the height each slot holds and the
	// first transaction of every merged block recorded there, by key.
	slots [memoHeights]struct {
		height  int
		entries map[string]*Tx
	}
	// arrays is every merged array a miss returned: a later miss must
	// return a fresh one.
	arrays map[*Tx]bool
}

func newMemoModel(t testing.TB) *memoModel {
	g := NewGenesis(nil, 0)
	m := &memoModel{t: t, arrays: make(map[*Tx]bool)}
	for id := range 3 {
		n := NewBaseNode(simnet.NodeID(id), []simnet.NodeID{0, 1, 2}, nil, BaseConfig{})
		n.Ledger.Genesis(g)
		m.nodes = append(m.nodes, n)
	}
	// Narrow ids repeat transactions within and across arrays; Amount tells
	// copies of one id apart, so a merge that keeps a later copy shows.
	for a := range m.pool {
		m.pool[a] = make([]Tx, 12)
		for i := range m.pool[a] {
			m.pool[a][i] = Tx{ID: MakeTxID(uint32(i%2), uint32((a*5+i*3)%16)), From: 1, To: 2, Amount: uint64(100*a + i)}
		}
	}
	return m
}

// list reads (array, start, length) from op and returns the list and its name.
func (m *memoModel) list(op func() int) ([]Tx, string) {
	a, start, n := op()%len(m.pool), op()%8, op()%5
	if n == 0 {
		return nil, "empty"
	}
	return m.pool[a][start : start+n], fmt.Sprintf("%d:%d:%d", a, start, n)
}

// run interprets ops three or more bytes at a time: merge (node, height,
// proposer, parent, list count, lists), seal (the same with one list), and
// a checkpoint restored at once, which forgets the memo.
func (m *memoModel) run(ops []byte) {
	op := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	for len(ops) > 0 {
		kind := op() % 3
		if kind == 2 {
			l := m.nodes[op()%len(m.nodes)].Ledger
			st := new(ledgerState)
			l.ledgerState.copyInto(st)
			l.restore(st)
			clear(m.slots[:])
			continue
		}
		node := m.nodes[op()%len(m.nodes)]
		b := Block{Height: op() % (3 * memoHeights), Proposer: simnet.NodeID(op() % 2), Parent: Hash{byte(op() % 2)}}
		key := fmt.Sprintf("%d/%d/%v", kind, b.Proposer, b.Parent[0])
		count := 1
		if kind == 0 {
			count += op() % 4
		}
		var lists [][]Tx
		for range count {
			list, name := m.list(op)
			lists, key = append(lists, list), key+"/"+name
		}
		var got Block
		if kind == 0 {
			got = node.MergeBlock(b, lists)
		} else {
			b.Txs = lists[0]
			node.Ledger.memo.sealBlock(&b, nil, nil)
			got = b
		}
		m.check(b.Height, kind == 0, key, lists, got)
	}
}

func (m *memoModel) check(height int, merged bool, key string, lists [][]Tx, got Block) {
	t := m.t
	t.Helper()
	want := lists[0]
	if merged {
		want = nil
		seen := make(map[TxID]bool)
		for _, list := range lists {
			for _, tx := range list {
				if !seen[tx.ID] {
					seen[tx.ID] = true
					want = append(want, tx)
				}
			}
		}
	}
	ref := Block{Height: got.Height, Proposer: got.Proposer, Parent: got.Parent, Txs: want}
	if len(got.Txs) != len(want) || !got.sealed || got.hash != HashBlock(ref) {
		t.Fatalf("height %d %s: got %d txs sealed=%v, want %d hashing to %v", height, key, len(got.Txs), got.sealed, len(want), HashBlock(ref))
	}
	for i := range want {
		if got.Txs[i] != want[i] {
			t.Fatalf("height %d %s: tx %d is %+v, want %+v", height, key, i, got.Txs[i], want[i])
		}
	}
	if merged && cap(got.Txs) != len(got.Txs) {
		t.Fatalf("height %d %s: %d txs in room for %d", height, key, len(got.Txs), cap(got.Txs))
	}
	// Only a merged, non-empty block shows by its array whether it came
	// from the memo; every sealed block moves the window alike.
	var first *Tx
	if merged && len(want) > 0 {
		first = &got.Txs[0]
	}
	s := &m.slots[height%memoHeights]
	if shared, ok := s.entries[key]; ok && s.height == height {
		if first != shared {
			t.Fatalf("height %d %s: merged privately, though the memo holds the block", height, key)
		}
		return
	}
	if first != nil {
		if m.arrays[first] {
			t.Fatalf("height %d %s: took a block the memo no longer holds (behind its window or forgotten)", height, key)
		}
		m.arrays[first] = true
	}
	switch {
	case s.height == height && s.entries != nil:
	case s.height > height && len(s.entries) > 0:
		return // behind the window: private
	default:
		s.height, s.entries = height, make(map[string]*Tx)
	}
	s.entries[key] = first
}

// FuzzBlockMemo: blocks sealed and merged through a deployment's memo, by
// several validators, over shared arrays, sub-slices with one start and
// different lengths, empty lists, transactions repeated across lists, two
// parents and two proposers at one height, heights past the window and
// checkpoint restores, equal Merge and HashBlock every time, and share one
// array exactly when the memo still holds the block.
func FuzzBlockMemo(f *testing.F) {
	type list [3]byte // array, start, length
	merge := func(node, height, parent byte, lists ...list) []byte {
		ops := []byte{0, node, height, 0, parent, byte(len(lists) - 1)}
		for _, l := range lists {
			ops = append(ops, l[:]...)
		}
		return ops
	}
	seal := func(node, height, parent byte, l list) []byte {
		return append([]byte{1, node, height, 0, parent}, l[:]...)
	}
	restore := []byte{2, 1}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	superblock := []list{{0, 1, 4}, {1, 3, 4}, {2, 0, 3}}

	f.Add([]byte{})
	// Three validators merge one superblock over repeated transactions: the
	// second and third take the first one's array.
	f.Add(cat(merge(0, 5, 0, superblock...), merge(1, 5, 0, superblock...), merge(2, 5, 0, superblock...)))
	// One start, lengths 4 then 2, and the first again; then both parents.
	f.Add(cat(merge(0, 3, 0, list{0, 0, 4}), merge(1, 3, 0, list{0, 0, 2}), merge(2, 3, 0, list{0, 0, 4}),
		merge(0, 3, 1, list{0, 0, 4}), merge(1, 3, 1, list{0, 0, 4})))
	// Seals of sub-slices and of an empty list; merges of empty lists.
	f.Add(cat(seal(0, 2, 0, list{1, 2, 3}), seal(1, 2, 0, list{1, 2, 2}), seal(2, 2, 0, list{1, 2, 3}),
		seal(0, 2, 0, list{0, 0, 0}), merge(0, 6, 1, list{0, 0, 0}, list{1, 1, 0}), merge(1, 6, 1, list{2, 2, 0})))
	// A height, the same slot a window later, then the first height again.
	f.Add(cat(merge(0, 1, 0, superblock...), merge(1, 1+memoHeights, 0, superblock...),
		merge(2, 1, 0, superblock...), merge(0, 1+memoHeights, 0, superblock...)))
	// Merge, checkpoint and restore, merge again: the memo forgot the first.
	f.Add(cat(merge(0, 7, 0, superblock...), restore, merge(1, 7, 0, superblock...), merge(2, 7, 0, superblock...)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		newMemoModel(t).run(ops)
	})
}
