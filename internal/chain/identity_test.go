package chain

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"stabl/internal/simnet"
)

// TestHashBlockBindsContent flips every field the block hash must bind, one
// at a time, and the two it must not; then holds the three ways a hash is
// obtained — from content, from a sealed copy, from a ledger — to each other.
func TestHashBlockBindsContent(t *testing.T) {
	// 40 transactions: the stream crosses HashBlock's buffer twice.
	build := func() Block {
		b := Block{Height: 3, Proposer: 2, Parent: Hash{7}, DecidedAt: time.Second}
		for i := uint32(0); i < 40; i++ {
			tx := mkTx(i%3, i, Address(i), Address(i+1), uint64(10+i))
			tx.Submitted = time.Duration(i) * time.Millisecond
			b.Txs = append(b.Txs, tx)
		}
		return b
	}
	want := HashBlock(build())
	if want.IsZero() || want != HashBlock(build()) {
		t.Fatal("HashBlock is not a function of the content")
	}
	bound := map[string]func(b *Block){
		"height":   func(b *Block) { b.Height++ },
		"proposer": func(b *Block) { b.Proposer++ },
		"parent":   func(b *Block) { b.Parent[31] ^= 1 },
		"order":    func(b *Block) { b.Txs[38], b.Txs[39] = b.Txs[39], b.Txs[38] },
		"dropped":  func(b *Block) { b.Txs = b.Txs[:39] },
	}
	// Every transaction position, so a field lost at a buffer boundary shows.
	for i := 0; i < 40; i++ {
		bound[fmt.Sprintf("tx %d id", i)] = func(b *Block) { b.Txs[i].ID ^= 1 << 40 }
		bound[fmt.Sprintf("tx %d from", i)] = func(b *Block) { b.Txs[i].From ^= 1 << 20 }
		bound[fmt.Sprintf("tx %d to", i)] = func(b *Block) { b.Txs[i].To ^= 1 << 20 }
		bound[fmt.Sprintf("tx %d amount", i)] = func(b *Block) { b.Txs[i].Amount ^= 1 << 50 }
		bound[fmt.Sprintf("tx %d nonce", i)] = func(b *Block) { b.Txs[i].Nonce ^= 1 << 50 }
	}
	for name, flip := range bound {
		b := build()
		flip(&b)
		if HashBlock(b) == want {
			t.Errorf("flipping %s leaves the hash unchanged", name)
		}
	}
	free := build()
	free.DecidedAt += time.Hour
	for i := range free.Txs {
		free.Txs[i].Submitted += time.Hour
	}
	if HashBlock(free) != want {
		t.Error("the hash binds DecidedAt or Submitted; validators decide at different instants")
	}

	sealed := build()
	if sealed.seal() != want || sealed.seal() != want || !sealed.sealed {
		t.Fatal("seal differs from HashBlock")
	}
	if HashBlock(sealed) != want {
		t.Fatal("HashBlock of a sealed block differs from the unsealed one")
	}

	// A ledger takes sealed and unsealed blocks alike and serves sealed
	// copies; VerifyChain recomputes from content, so a carried hash that no
	// longer matches its block is caught there.
	l := NewLedger()
	l.VerifyParents = true
	first := Block{Height: 0, Txs: []Tx{mkTx(0, 0, 1, 2, 0)}}
	second := Block{Height: 1, Parent: HashBlock(first), Txs: []Tx{mkTx(0, 1, 1, 2, 0)}}
	second.seal()
	for _, b := range []Block{first, second} {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if l.TipHash() != HashBlock(second) {
		t.Fatal("TipHash differs from the content hash of the tip")
	}
	if h, err := l.BlockHash(0); err != nil || h != HashBlock(first) {
		t.Fatalf("BlockHash(0) = %v, %v", h, err)
	}
	if served := l.BlocksFrom(0, 0); !served[0].sealed || served[0].hash != HashBlock(first) {
		t.Fatal("a ledger serves blocks without their hash")
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	l.blocks[0].Txs[0].Amount++ // the sealed hash is now stale
	if err := l.VerifyChain(); err == nil || !strings.Contains(err.Error(), "block 0 content hash mismatch") {
		t.Fatalf("VerifyChain over a stale sealed hash: %v", err)
	}
}

// TestSubmitBlockSealsOnce follows one block through a node: the pipeline,
// the ledger and the monitor all hold the hash SubmitBlock computed.
func TestSubmitBlockSealsOnce(t *testing.T) {
	sched, _, v0, _, _, mon := baseTestSetup(t, BaseConfig{})
	n := v0.base
	b := Block{Height: 0, Txs: []Tx{mkTx(0, 0, 1, 2, 0)}}
	later := Block{Height: 2, Parent: Hash{9}, Txs: []Tx{mkTx(0, 1, 1, 2, 0)}}
	n.SubmitBlock(later) // waits for height 1
	if n.TipHash() != HashBlock(later) || !n.pending[2].sealed {
		t.Fatal("TipHash of a queued block is not its content hash")
	}
	n.SubmitBlock(b)
	sched.RunUntil(10 * time.Millisecond)
	if got, _ := n.Ledger.Block(0); !got.sealed || got.hash != HashBlock(b) {
		t.Fatal("the ledger's copy lost the hash SubmitBlock sealed")
	}
	if mon.heights[0] != HashBlock(b) {
		t.Fatal("the monitor recorded another hash than the ledger's")
	}
}

// TestMergeMatchesMapDedup merges random overlapping proposal lists through
// Merge and through the map loop Redbelly's assemble used to run, on a node
// whose table already holds pooled, in-pipeline and committed transactions
// among the proposed ones. The merge comes back at its exact length.
func TestMergeMatchesMapDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewBaseNode(0, []simnet.NodeID{0}, nil, BaseConfig{})
	n.Ledger.Mint(1, 1<<40)
	id := func() TxID { return MakeTxID(uint32(rng.Intn(4)), uint32(rng.Intn(300))) }
	var committed []Tx
	for i := 0; i < 60; i++ {
		committed = append(committed, Tx{ID: id(), From: 1, To: 2, Amount: 1})
	}
	if _, err := n.Ledger.Append(Block{Height: 0, Txs: committed}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		n.Pool.Add(Tx{ID: id(), From: 1, To: 2})
	}
	for i := 0; i < 60; i++ { // what SubmitBlock does to a queued block
		*n.Ledger.txs.slot(id()) |= txPipeline
	}
	// Touch every id the rounds can draw, so no row grows under a merge and
	// the rows can be compared cell for cell before and after.
	for c := uint32(0); c < 4; c++ {
		n.Ledger.txs.slot(MakeTxID(c, 299))
		n.Ledger.txs.slot(MakeTxID(c, 0))
	}
	states := func() []uint32 {
		var cells []uint32
		for c := range n.Ledger.txs.rows {
			_, row := rowCells(&n.Ledger.txs, c)
			cells = append(cells, row...)
		}
		return cells
	}

	for round := 0; round < 200; round++ {
		lists := make([][]Tx, 1+rng.Intn(5))
		for i := range lists {
			lists[i] = make([]Tx, rng.Intn(30))
			for j := range lists[i] {
				// Amount tells copies of one id apart: the first must win.
				lists[i][j] = Tx{ID: id(), Amount: uint64(rng.Int63())}
			}
		}
		var want []Tx
		seen := make(map[TxID]bool)
		for _, list := range lists {
			for _, tx := range list {
				if seen[tx.ID] {
					continue
				}
				seen[tx.ID] = true
				want = append(want, tx)
			}
		}
		before := states()
		got := n.Merge(lists)
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("round %d: Merge returned %d txs in room for %d, the map loop %d", round, len(got), cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: merged[%d] = %+v, the map loop has %+v", round, i, got[i], want[i])
			}
		}
		// The merge left the table as it found it: no mark, no other bit.
		for i, cell := range states() {
			if cell != before[i] {
				t.Fatalf("round %d: the merge changed cell %d from %#x to %#x", round, i, before[i], cell)
			}
		}
	}
	// The states the table held going in are all still there.
	for _, tx := range committed {
		if h, ok := n.Ledger.Committed(tx.ID); !ok || h != 0 {
			t.Fatalf("%v lost its committed height", tx.ID)
		}
	}
	for _, tx := range n.Pool.Pending() {
		if !n.Pool.Contains(tx.ID) {
			t.Fatalf("%v lost its in-pool mark", tx.ID)
		}
	}
}

// TestMonitorReportsForkOncePerHeight hands the monitor two different blocks
// at one height from ten validators: one entry, naming the height, the count
// on the other side and both hashes, whatever the arrival order.
func TestMonitorReportsForkOncePerHeight(t *testing.T) {
	mon := NewMonitor()
	genesis := Block{Height: 0, Txs: []Tx{mkTx(0, 0, 1, 2, 0)}}
	a := Block{Height: 1, Proposer: 1, Parent: HashBlock(genesis), Txs: []Tx{mkTx(0, 1, 1, 2, 0)}}
	b := Block{Height: 1, Proposer: 2, Parent: HashBlock(genesis), Txs: []Tx{mkTx(0, 2, 1, 2, 0)}}
	next := Block{Height: 2, Parent: HashBlock(a)}
	for id := simnet.NodeID(0); id < 10; id++ {
		mon.RecordBlock(id, genesis, time.Second)
	}
	if errs := mon.IntegrityErrors(); len(errs) != 0 {
		t.Fatalf("ten validators agreeing on genesis: %v", errs)
	}
	// Six commit a, four commit b, interleaved; the a-side moves on to
	// height 2 before the last b report arrives.
	for id, blk := range []Block{a, b, a, a, b, a, b, a, a} {
		mon.RecordBlock(simnet.NodeID(id), blk, 2*time.Second)
	}
	mon.RecordBlock(0, next, 3*time.Second)
	mon.RecordBlock(9, b, 3*time.Second)
	errs := mon.IntegrityErrors()
	want := "height 1: 4 validators committed " + HashBlock(b).String() + ", first seen " + HashBlock(a).String()
	if len(errs) != 1 || errs[0] != want {
		t.Fatalf("IntegrityErrors = %q, want exactly %q", errs, want)
	}
	if mon.UniqueCommits() != 2 || mon.MaxHeight() != 2 {
		t.Fatalf("the fork changed what is counted: %d commits, height %d", mon.UniqueCommits(), mon.MaxHeight())
	}

	// A height the monitor jumped over is a hole: the first report fills
	// it, the second is held to it. The checkpoint carries all of it.
	st := mon.Snapshot()
	mon.RecordBlock(0, Block{Height: 5}, 4*time.Second)
	mon.RecordBlock(1, Block{Height: 4, Proposer: 1}, 4*time.Second)
	mon.RecordBlock(2, Block{Height: 4, Proposer: 2}, 4*time.Second)
	if errs := mon.IntegrityErrors(); len(errs) != 2 || !strings.HasPrefix(errs[1], "height 4: 1 validators committed ") {
		t.Fatalf("after a fork in a filled hole: %q", errs)
	}
	mon.Restore(st)
	if errs := mon.IntegrityErrors(); len(errs) != 1 || errs[0] != want || len(mon.heights) != 3 {
		t.Fatalf("after restore: %q, %d heights", errs, len(mon.heights))
	}
	mon.RecordBlock(3, Block{Height: 1, Proposer: 3}, 5*time.Second)
	if errs := st.(*monitorState).forks; len(errs) != 1 || errs[0].n != 4 {
		t.Fatalf("the checkpoint shares its fork records with the monitor: %+v", errs)
	}
}
