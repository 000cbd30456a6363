package chain

import (
	"testing"
	"time"

	"stabl/internal/sim"
	"stabl/internal/simnet"
)

// testValidator is a minimal chain model: every leaderless "round" it seals
// whatever is in its pool into a block and applies it locally. It exists to
// exercise BaseNode in isolation.
type testValidator struct {
	base *BaseNode
}

func (v *testValidator) Start(ctx *simnet.Context) { v.base.Reset(ctx) }
func (v *testValidator) Stop()                     {}

func (v *testValidator) Deliver(from simnet.NodeID, payload any) {
	if v.base.HandleClient(from, payload) {
		return
	}
	if v.base.HandleSync(from, payload) {
		return
	}
}

func (v *testValidator) seal(now time.Duration) {
	txs := v.base.Pool.Pop(0)
	v.base.SubmitBlock(Block{
		Height:    v.base.ChainTip(),
		Parent:    v.base.TipHash(),
		Txs:       txs,
		DecidedAt: now,
	})
}

// clientRecorder records TxCommitted notifications.
type clientRecorder struct {
	ctx       *simnet.Context
	committed []TxID
}

func (c *clientRecorder) Start(ctx *simnet.Context) { c.ctx = ctx }
func (c *clientRecorder) Stop()                     {}
func (c *clientRecorder) Deliver(_ simnet.NodeID, payload any) {
	if msg, ok := payload.(TxCommitted); ok {
		c.committed = append(c.committed, msg.ID)
	}
}

func baseTestSetup(t *testing.T, cfg BaseConfig) (*sim.Scheduler, *simnet.Network, *testValidator, *testValidator, *clientRecorder, *Monitor) {
	t.Helper()
	sched := sim.New(5)
	net := simnet.New(sched, simnet.Config{Latency: simnet.FixedLatency(5 * time.Millisecond)})
	mon := NewMonitor()
	peers := []simnet.NodeID{0, 1}
	v0 := &testValidator{base: NewBaseNode(0, peers, mon, cfg)}
	v1 := &testValidator{base: NewBaseNode(1, peers, mon, cfg)}
	cl := &clientRecorder{}
	net.AddNode(0, v0)
	net.AddNode(1, v1)
	net.AddNode(100, cl)
	net.StartAll()
	return sched, net, v0, v1, cl, mon
}

func TestBaseNodeCommitNotifiesSubscriber(t *testing.T) {
	sched, _, v0, _, cl, mon := baseTestSetup(t, BaseConfig{})
	tx := mkTx(0, 1, 1, 2, 0)
	cl.ctx.Send(0, SubmitTx{Tx: tx})
	sched.RunUntil(100 * time.Millisecond)
	if v0.base.Pool.Len() != 1 {
		t.Fatalf("pool len = %d", v0.base.Pool.Len())
	}
	v0.seal(sched.Now())
	sched.RunUntil(200 * time.Millisecond)
	if len(cl.committed) != 1 || cl.committed[0] != tx.ID {
		t.Fatalf("client notifications = %v", cl.committed)
	}
	if mon.UniqueCommits() != 1 {
		t.Fatalf("monitor commits = %d", mon.UniqueCommits())
	}
}

func TestBaseNodeDuplicateOfCommittedAcksImmediately(t *testing.T) {
	sched, _, v0, _, cl, _ := baseTestSetup(t, BaseConfig{})
	tx := mkTx(0, 1, 1, 2, 0)
	cl.ctx.Send(0, SubmitTx{Tx: tx})
	sched.RunUntil(50 * time.Millisecond)
	v0.seal(sched.Now())
	sched.RunUntil(100 * time.Millisecond)
	cl.ctx.Send(0, SubmitTx{Tx: tx}) // duplicate after commit
	sched.RunUntil(200 * time.Millisecond)
	if len(cl.committed) != 2 {
		t.Fatalf("duplicate not acked: %v", cl.committed)
	}
	if v0.base.Pool.Len() != 0 {
		t.Fatal("duplicate entered pool")
	}
}

func TestBaseNodeExecBudgetDelaysApply(t *testing.T) {
	// 100 tx/s budget; a 200-tx block takes ~2 s to execute.
	sched, _, v0, _, cl, mon := baseTestSetup(t, BaseConfig{ExecRate: 100, ExecBurst: 1})
	txs := make([]Tx, 200)
	for i := range txs {
		txs[i] = mkTx(0, uint32(i), 1, 2, 0)
		cl.ctx.Send(0, SubmitTx{Tx: txs[i]})
	}
	sched.RunUntil(50 * time.Millisecond)
	v0.seal(sched.Now())
	sched.RunUntil(time.Second)
	if mon.UniqueCommits() != 0 {
		t.Fatal("block applied before exec budget allowed")
	}
	sched.RunUntil(3 * time.Second)
	if mon.UniqueCommits() != 200 {
		t.Fatalf("commits = %d, want 200", mon.UniqueCommits())
	}
}

func TestBaseNodeOutOfOrderBlocksWait(t *testing.T) {
	sched, _, v0, _, _, mon := baseTestSetup(t, BaseConfig{})
	b0 := Block{Height: 0, Txs: []Tx{mkTx(0, 0, 1, 2, 0)}}
	b1 := Block{Height: 1, Parent: HashBlock(b0), Txs: []Tx{mkTx(0, 1, 1, 2, 0)}}
	v0.base.SubmitBlock(b1)
	sched.RunUntil(10 * time.Millisecond)
	if mon.UniqueCommits() != 0 {
		t.Fatal("future block applied early")
	}
	if v0.base.HeadPending() != 1 {
		t.Fatalf("HeadPending = %d, want 1", v0.base.HeadPending())
	}
	v0.base.SubmitBlock(b0)
	sched.RunUntil(20 * time.Millisecond)
	if mon.UniqueCommits() != 2 {
		t.Fatalf("commits = %d, want 2", mon.UniqueCommits())
	}
	if v0.base.Ledger.Height() != 2 {
		t.Fatalf("height = %d", v0.base.Ledger.Height())
	}
}

func TestBaseNodeCatchUpFetchesMissedBlocks(t *testing.T) {
	sched, net, v0, v1, _, _ := baseTestSetup(t, BaseConfig{SyncBatch: 3})
	net.Halt(1)
	// v0 advances 7 blocks while v1 is down.
	parent := Hash{}
	for i := 0; i < 7; i++ {
		b := Block{Height: i, Parent: parent, Txs: []Tx{mkTx(0, uint32(i), 1, 2, 0)}}
		parent = HashBlock(b)
		v0.base.SubmitBlock(b)
	}
	sched.RunUntil(time.Second)
	net.Restart(1)
	v1.base.StartCatchUp()
	sched.RunUntil(5 * time.Second)
	if v1.base.Ledger.Height() != 7 {
		t.Fatalf("v1 height after catch-up = %d, want 7", v1.base.Ledger.Height())
	}
	if v1.base.CatchingUp() {
		t.Fatal("catch-up still active after reaching head")
	}
}

func TestBaseNodeCatchUpRetriesOnSilence(t *testing.T) {
	sched, net, v0, v1, _, _ := baseTestSetup(t, BaseConfig{SyncBatch: 3, SyncRetry: time.Second})
	parent2 := Hash{}
	for i := 0; i < 2; i++ {
		b := Block{Height: i, Parent: parent2}
		parent2 = HashBlock(b)
		v0.base.SubmitBlock(b)
	}
	sched.RunUntil(100 * time.Millisecond)
	// Peer 0 goes down; v1's first sync request goes nowhere, but the
	// retry timer keeps the catch-up alive until 0 returns.
	net.Halt(0)
	v1.base.StartCatchUp()
	sched.RunUntil(3 * time.Second)
	net.Restart(0)
	sched.RunUntil(10 * time.Second)
	if v1.base.Ledger.Height() != 2 {
		t.Fatalf("v1 height = %d, want 2", v1.base.Ledger.Height())
	}
}

func TestBaseNodeRestartClearsPool(t *testing.T) {
	sched, net, v0, _, cl, _ := baseTestSetup(t, BaseConfig{})
	cl.ctx.Send(0, SubmitTx{Tx: mkTx(0, 1, 1, 2, 0)})
	sched.RunUntil(100 * time.Millisecond)
	if v0.base.Pool.Len() != 1 {
		t.Fatal("tx not pooled")
	}
	net.Halt(0)
	net.Restart(0)
	if v0.base.Pool.Len() != 0 {
		t.Fatal("pool survived restart; mempool must be volatile")
	}
}

// TestBaseNodeRestartCancelsLastSyncRetry restarts a node mid catch-up: the
// next round cancels the halted incarnation's retry instead of leaving it
// queued to fire as a fenced no-op.
func TestBaseNodeRestartCancelsLastSyncRetry(t *testing.T) {
	sched, net, _, v1, _, _ := baseTestSetup(t, BaseConfig{SyncRetry: time.Second})
	net.Halt(0) // nobody answers v1's sync requests
	v1.base.StartCatchUp()
	sched.RunUntil(100 * time.Millisecond)
	retry := v1.base.syncTimer
	net.Halt(1)
	net.Restart(1)
	v1.base.StartCatchUp()
	if !retry.Stopped() {
		t.Fatal("the halted incarnation's sync retry is still queued")
	}
}

func TestBaseNodeOnCommitHookAndOnLocalSubmit(t *testing.T) {
	sched, _, v0, _, cl, _ := baseTestSetup(t, BaseConfig{})
	var hookBlocks, localSubmits int
	v0.base.OnCommit = func(Block) { hookBlocks++ }
	v0.base.OnLocalSubmit = func(Tx) { localSubmits++ }
	cl.ctx.Send(0, SubmitTx{Tx: mkTx(0, 1, 1, 2, 0)})
	sched.RunUntil(50 * time.Millisecond)
	v0.seal(sched.Now())
	sched.RunUntil(100 * time.Millisecond)
	if hookBlocks != 1 || localSubmits != 1 {
		t.Fatalf("hooks: commit=%d submit=%d", hookBlocks, localSubmits)
	}
}

func TestMonitorDeduplicatesAcrossNodes(t *testing.T) {
	mon := NewMonitor()
	b := Block{Height: 0, Txs: []Tx{mkTx(0, 0, 1, 2, 0)}}
	mon.RecordBlock(0, b, time.Second)
	mon.RecordBlock(1, b, 2*time.Second)
	if mon.UniqueCommits() != 1 {
		t.Fatalf("commits = %d, want 1", mon.UniqueCommits())
	}
	if mon.Commits()[0].Committed != time.Second {
		t.Fatal("first-commit time overwritten")
	}
	if mon.MaxHeight() != 0 {
		t.Fatalf("MaxHeight = %d", mon.MaxHeight())
	}
	if mon.LastCommitAt() != time.Second {
		t.Fatalf("LastCommitAt = %v", mon.LastCommitAt())
	}
}

func TestMonitorCommittedSince(t *testing.T) {
	mon := NewMonitor()
	for i := 0; i < 3; i++ {
		mon.RecordBlock(0, Block{Height: i, Txs: []Tx{mkTx(0, uint32(i), 1, 2, 0)}},
			time.Duration(i)*time.Second)
	}
	if got := mon.CommittedSince(time.Second); got != 2 {
		t.Fatalf("CommittedSince(1s) = %d, want 2", got)
	}
	if got := mon.CommittedSince(10 * time.Second); got != 0 {
		t.Fatalf("CommittedSince(10s) = %d, want 0", got)
	}
}
