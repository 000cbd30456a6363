package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"stabl/internal/simnet"
)

// refLedger is the map-based account and dedup state the Ledger kept before
// its tables; the tests below hold the flat tables to it.
type refLedger struct {
	committed map[TxID]int
	balances  map[Address]uint64
	nonces    map[Address]uint64
	height    int
}

func newRefLedger() *refLedger {
	return &refLedger{
		committed: map[TxID]int{},
		balances:  map[Address]uint64{},
		nonces:    map[Address]uint64{},
	}
}

func (r *refLedger) mint(a Address, amount uint64) { r.balances[a] += amount }

func (r *refLedger) append(txs []Tx) (executed int) {
	for _, tx := range txs {
		if _, dup := r.committed[tx.ID]; dup {
			continue
		}
		r.committed[tx.ID] = r.height
		if r.balances[tx.From] < tx.Amount {
			continue
		}
		r.balances[tx.From] -= tx.Amount
		r.balances[tx.To] += tx.Amount
		if tx.Nonce >= r.nonces[tx.From] {
			r.nonces[tx.From] = tx.Nonce + 1
		}
		executed++
	}
	r.height++
	return executed
}

func (r *refLedger) stateHash() Hash {
	addrs := make([]Address, 0, len(r.balances))
	for a := range r.balances {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := sha256.New()
	var buf [8]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(buf[:], uint64(a))
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], r.balances[a])
		_, _ = h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], r.nonces[a])
		_, _ = h.Write(buf[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

func compareLedgers(t *testing.T, l *Ledger, r *refLedger, addrs Address, ids []TxID) {
	t.Helper()
	for a := Address(0); a < addrs; a++ {
		if l.Balance(a) != r.balances[a] || l.NextNonce(a) != r.nonces[a] {
			t.Fatalf("account %d: (%d, %d), reference (%d, %d)",
				a, l.Balance(a), l.NextNonce(a), r.balances[a], r.nonces[a])
		}
		_, wantLive := r.balances[a]
		if live := int(a) < len(l.accounts) && l.accounts[a].live; live != wantLive {
			t.Fatalf("account %d: live = %v, reference holds it: %v", a, live, wantLive)
		}
	}
	for _, id := range ids {
		wantH, wantOK := r.committed[id]
		if h, ok := l.Committed(id); h != wantH || ok != wantOK {
			t.Fatalf("%v: Committed = (%d, %v), reference (%d, %v)", id, h, ok, wantH, wantOK)
		}
	}
	if l.StateHash() != r.stateHash() {
		t.Fatal("StateHash differs from the sorted-map reference")
	}
}

func TestLedgerMatchesMapReference(t *testing.T) {
	const addrs = 48
	rng := rand.New(rand.NewSource(7))
	l, r := NewLedger(), newRefLedger()
	// Fund every third account; the others start neither funded nor live.
	for a := Address(0); a < 30; a += 3 {
		l.Mint(a, 500)
		r.mint(a, 500)
	}
	var ids []TxID
	appendBoth := func(txs []Tx) {
		t.Helper()
		for _, tx := range txs {
			ids = append(ids, tx.ID)
		}
		executed, err := l.Append(Block{Height: l.Height(), Parent: l.TipHash(), Txs: txs})
		if err != nil {
			t.Fatal(err)
		}
		if want := r.append(txs); len(executed) != want {
			t.Fatalf("block %d executed %d txs, reference %d", l.Height()-1, len(executed), want)
		}
		compareLedgers(t, l, r, addrs, ids)
	}

	// A zero-amount transfer between two never-minted accounts executes
	// and makes both live; address 40 lies below 41..42 in the slice yet
	// stays out of the state hash.
	appendBoth([]Tx{{ID: MakeTxID(9, 0), From: 41, To: 42, Amount: 0, Nonce: 5}})
	if !l.accounts[41].live || !l.accounts[42].live || l.accounts[40].live {
		t.Fatalf("live flags after zero-amount transfer: 40=%v 41=%v 42=%v",
			l.accounts[40].live, l.accounts[41].live, l.accounts[42].live)
	}
	// An unfunded sender commits the id but touches no account.
	appendBoth([]Tx{{ID: MakeTxID(9, 1), From: 44, To: 45, Amount: 1}})
	if len(l.accounts) > 43 {
		t.Fatalf("a skipped transfer grew the account table to %d", len(l.accounts))
	}

	for block := 0; block < 60; block++ {
		txs := make([]Tx, rng.Intn(40))
		for i := range txs {
			txs[i] = Tx{
				// A narrow id space: duplicates within and across blocks.
				ID:     MakeTxID(uint32(rng.Intn(3)), uint32(rng.Intn(400))),
				From:   Address(rng.Intn(36)),
				To:     Address(rng.Intn(36)),
				Amount: uint64(rng.Intn(200)),
				Nonce:  uint64(rng.Intn(50)),
			}
		}
		appendBoth(txs)
	}
}

func TestLedgerRejectsUnrecordableHeight(t *testing.T) {
	l := NewLedger()
	_, err := l.Append(Block{Height: maxTxHeight + 1})
	if err == nil || !strings.Contains(err.Error(), "can record") {
		t.Fatalf("Append past the table's height range: %v", err)
	}
	if h, ok := committedHeight(uint32(maxTxHeight+1)<<txHeightShift | txMark | txPooled | txPipeline | txSubscribed); !ok || h != maxTxHeight {
		t.Fatalf("maxTxHeight does not round-trip: (%d, %v)", h, ok)
	}
}

// TestBaseSnapshotRestoreEveryTxState checkpoints a node holding one
// transaction in each state the table encodes, runs it on through a restart
// and more commits, and rewinds.
func TestBaseSnapshotRestoreEveryTxState(t *testing.T) {
	sched, _, v0, _, _, _ := baseTestSetup(t, BaseConfig{})
	n := v0.base
	for a := Address(0); a < 4; a++ {
		n.Ledger.Mint(a, 1000)
	}
	committed := mkTx(1, 0, 0, 1, 10)
	pooled := mkTx(1, 1, 0, 1, 10)
	piped := mkTx(1, 2, 1, 2, 10)
	pooledAndPiped := mkTx(1, 3, 2, 3, 10)
	readded := mkTx(1, 4, 3, 0, 10)

	n.SubmitBlock(Block{Height: 0, Txs: []Tx{committed}})
	sched.RunUntil(10 * time.Millisecond)
	n.Pool.Add(readded)
	n.Pool.Pop(1)
	n.Pool.Add(pooled)
	n.Pool.Add(pooledAndPiped)
	n.Pool.Add(readded)
	// Height 2 waits for height 1, so its transactions stay in the pipeline.
	n.SubmitBlock(Block{Height: 2, Txs: []Tx{piped, pooledAndPiped}})

	type view struct {
		pooled, piped, committed bool
		height                   int
	}
	all := []Tx{committed, pooled, piped, pooledAndPiped, readded, mkTx(1, 5, 0, 1, 1)}
	observe := func() (views []view, queue []TxID, hash Hash, cells, accounts int) {
		for _, tx := range all {
			h, ok := n.Ledger.Committed(tx.ID)
			views = append(views, view{n.Pool.Contains(tx.ID), n.InPipeline(tx.ID), ok, h})
		}
		for _, tx := range n.Pool.Pending() {
			queue = append(queue, tx.ID)
		}
		return views, queue, n.Ledger.StateHash(), cellsInUse(&n.Ledger.txs), len(n.Ledger.accounts)
	}
	wantViews, wantQueue, wantHash, wantCells, wantAccounts := observe()
	want := []view{{false, false, true, 0}, {true, false, false, 0}, {false, true, false, 0},
		{true, true, false, 0}, {true, false, false, 0}, {}}
	for i := range want {
		if wantViews[i] != want[i] {
			t.Fatalf("before snapshot, tx %d is %+v, want %+v", i, wantViews[i], want[i])
		}
	}
	if len(wantQueue) != 3 || wantQueue[2] != readded.ID {
		t.Fatalf("queue before snapshot: %v", wantQueue)
	}
	st := n.SnapshotBase()

	// Move on: restart (volatile bits swept), then enough new traffic to
	// grow both tables and commit what was pending.
	n.Reset(n.Ctx())
	if n.Pool.Contains(pooled.ID) || n.InPipeline(piped.ID) || n.Pool.Len() != 0 {
		t.Fatal("restart kept volatile transaction state")
	}
	if _, ok := n.Ledger.Committed(committed.ID); !ok {
		t.Fatal("restart lost a committed transaction")
	}
	var more []Tx
	for i := uint32(0); i < 100; i++ {
		more = append(more, mkTx(2, i, 0, Address(10+i), 1))
	}
	n.SubmitBlock(Block{Height: 1, Parent: n.Ledger.TipHash(), Txs: append(more, pooled, piped)})
	sched.RunUntil(20 * time.Millisecond)
	if n.Ledger.Height() != 2 || cellsInUse(&n.Ledger.txs) <= wantCells || len(n.Ledger.accounts) <= wantAccounts {
		t.Fatalf("post-snapshot traffic did not land: height %d", n.Ledger.Height())
	}

	n.RestoreBase(st)
	gotViews, gotQueue, gotHash, gotCells, gotAccounts := observe()
	for i := range wantViews {
		if gotViews[i] != wantViews[i] {
			t.Fatalf("after restore, tx %d is %+v, want %+v", i, gotViews[i], wantViews[i])
		}
	}
	if len(gotQueue) != len(wantQueue) {
		t.Fatalf("queue after restore: %v, want %v", gotQueue, wantQueue)
	}
	for i := range wantQueue {
		if gotQueue[i] != wantQueue[i] {
			t.Fatalf("queue after restore: %v, want %v", gotQueue, wantQueue)
		}
	}
	if gotHash != wantHash || gotCells != wantCells || gotAccounts != wantAccounts || n.Ledger.Height() != 1 {
		t.Fatalf("ledger after restore: cells %d/%d accounts %d/%d height %d",
			gotCells, wantCells, gotAccounts, wantAccounts, n.Ledger.Height())
	}
	// The checkpoint itself must be untouched by what the node does next.
	n.Pool.Pop(0)
	n.RestoreBase(st)
	if _, queue, _, _, _ := observe(); len(queue) != len(wantQueue) {
		t.Fatalf("second restore: queue %v, want %v", queue, wantQueue)
	}
}

// TestBaseNodeRejectedBlockKeepsPipelineMarks pins a known defect so that
// fixing it is a deliberate change (ROADMAP item 4): when Ledger.Append
// rejects a block, apply returns before clearing the block's in-pipeline
// marks, so this node never proposes those transactions again.
func TestBaseNodeRejectedBlockKeepsPipelineMarks(t *testing.T) {
	sched, _, v0, _, _, _ := baseTestSetup(t, BaseConfig{})
	n := v0.base
	tx := mkTx(0, 1, 1, 2, 0)
	n.Pool.Add(tx)
	n.SubmitBlock(Block{Height: 0, Parent: Hash{1}, Txs: []Tx{tx}}) // wrong parent
	sched.RunUntil(10 * time.Millisecond)
	if n.ApplyErrors() != 1 || n.Ledger.Height() != 0 {
		t.Fatalf("block not rejected: errors=%d height=%d", n.ApplyErrors(), n.Ledger.Height())
	}
	if !n.InPipeline(tx.ID) {
		t.Fatal("in-pipeline mark cleared on a rejected block: the behaviour this test pins changed")
	}
	if !n.Pool.Contains(tx.ID) || len(n.ProposalTxs(10)) != 0 {
		t.Fatal("the stranded transaction should stay pooled but unproposable")
	}
}

func TestRandomPeerMatchesFilteredDraw(t *testing.T) {
	peers := []simnet.NodeID{0, 1, 2, 3, 4, 5, 6}
	for _, self := range []simnet.NodeID{0, 3, 6, 99} {
		n := &BaseNode{ID: self, Peers: peers, nodeState: nodeState{rng: rand.New(rand.NewSource(11))}}
		ref := rand.New(rand.NewSource(11))
		var others []simnet.NodeID
		for _, p := range peers {
			if p != self {
				others = append(others, p)
			}
		}
		for i := 0; i < 200; i++ {
			if got, want := n.randomPeer(), others[ref.Intn(len(others))]; got != want {
				t.Fatalf("self %d draw %d: peer %d, filtered-slice draw gives %d", self, i, got, want)
			}
		}
	}
	alone := &BaseNode{ID: 4, Peers: []simnet.NodeID{4}, nodeState: nodeState{rng: rand.New(rand.NewSource(1))}}
	if alone.randomPeer() != 4 {
		t.Fatal("a node with no other peer must get itself")
	}
}

// benchTxs returns count transfers among 64 funded accounts with ids
// (client, first..first+count).
func benchTxs(client, first uint32, count int) []Tx {
	txs := make([]Tx, count)
	for i := range txs {
		seq := first + uint32(i)
		txs[i] = Tx{ID: MakeTxID(client, seq), From: Address(seq % 64), To: Address((seq + 1) % 64), Amount: 1, Nonce: uint64(seq / 64)}
	}
	return txs
}

func fundedLedger() *Ledger {
	l := NewLedger()
	for a := Address(0); a < 64; a++ {
		l.Mint(a, 1<<40)
	}
	return l
}

func TestSteadyStateAllocations(t *testing.T) {
	const block = 64
	pool := NewMempool(nil)
	batch := benchTxs(0, 0, block)
	cycle := func() {
		for _, tx := range batch {
			pool.Add(tx)
		}
		pool.Drop(batch)
	}
	cycle() // size the table and the queue
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Mempool Add+Drop of a sized pool allocates %v times per block", allocs)
	}

	// Append's own cost is the executed slice; hashing the block allocates
	// too (sha256 digests), which is measured apart and subtracted.
	l := fundedLedger()
	next := uint32(0)
	appendBlock := func() {
		b := Block{Height: l.Height(), Parent: l.TipHash(), Txs: benchTxs(1, next, block)}
		next += block
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Append until the table has just doubled, so the measured appends
	// below cannot grow it.
	for size := -1; len(l.txs.cells) < 1<<15 || len(l.txs.cells) == size; {
		size = len(l.txs.cells)
		appendBlock()
	}
	sized := len(l.txs.cells)
	sample := Block{Txs: benchTxs(1, 0, block)}
	var sink Hash
	hashing := testing.AllocsPerRun(100, func() { sink = HashBlock(sample) })
	building := testing.AllocsPerRun(100, func() { sample.Txs = benchTxs(1, 0, block) })
	_ = sink
	allocs := testing.AllocsPerRun(100, appendBlock)
	if len(l.txs.cells) != sized {
		t.Fatalf("table grew during the measurement (%d -> %d cells)", sized, len(l.txs.cells))
	}
	if own := allocs - hashing - building; own > 1 {
		t.Errorf("Ledger.Append allocates %v times per block beyond hashing; want the executed slice only", own)
	}
}

func BenchmarkMempoolAddDrop(b *testing.B) {
	const block = 256
	pool := NewMempool(nil)
	batch := benchTxs(0, 0, block)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tx := range batch {
			pool.Add(tx)
		}
		pool.Drop(batch)
	}
}

func BenchmarkLedgerAppend(b *testing.B) {
	const block, perLedger = 128, 640 // one paper-sized run per ledger
	var l *Ledger
	batch := benchTxs(0, 0, block)
	next := uint32(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l == nil || l.Height() == perLedger {
			l = fundedLedger()
		}
		for j := range batch {
			batch[j].ID = MakeTxID(0, next)
			next++
		}
		if _, err := l.Append(Block{Height: l.Height(), Parent: l.TipHash(), Txs: batch}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseSnapshotRestore(b *testing.B) {
	n := NewBaseNode(0, []simnet.NodeID{0, 1}, nil, BaseConfig{})
	for a := Address(0); a < 64; a++ {
		n.Ledger.Mint(a, 1<<40)
	}
	// Mid-run shape: 20k transactions committed, 2k pooled.
	for h := 0; h < 160; h++ {
		blk := Block{Height: h, Parent: n.Ledger.TipHash(), Txs: benchTxs(0, uint32(h)*128, 128)}
		if _, err := n.Ledger.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
	for _, tx := range benchTxs(1, 0, 2048) {
		n.Pool.Add(tx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := n.SnapshotBase()
		n.RestoreBase(st)
	}
}
