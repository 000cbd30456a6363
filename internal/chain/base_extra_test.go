package chain

import (
	"testing"
	"time"

	"stabl/internal/simnet"
)

func TestBaseNodeReadRequestAnswersFromLedger(t *testing.T) {
	sched, net, v0, _, _, _ := baseTestSetup(t, BaseConfig{})
	v0.base.Ledger.Mint(7, 500)
	probe := &readProbe{}
	net.AddNode(200, probe)
	net.StartNode(200)
	probe.ctx.Send(0, ReadReq{Seq: 10, Addr: 7})
	sched.RunUntil(200 * time.Millisecond)
	if len(probe.resps) != 1 {
		t.Fatalf("responses = %d", len(probe.resps))
	}
	resp := probe.resps[0]
	if resp.Seq != 10 || resp.Addr != 7 || resp.Balance != 500 {
		t.Fatalf("resp = %+v", resp)
	}
}

// readProbe records ReadResp messages.
type readProbe struct {
	ctx   *simnet.Context
	resps []ReadResp
}

func (p *readProbe) Start(ctx *simnet.Context) { p.ctx = ctx }
func (p *readProbe) Stop()                     {}
func (p *readProbe) Deliver(_ simnet.NodeID, payload any) {
	if r, ok := payload.(ReadResp); ok {
		p.resps = append(p.resps, r)
	}
}

func TestBaseNodeInPipelineAndChainTip(t *testing.T) {
	sched, _, v0, _, _, _ := baseTestSetup(t, BaseConfig{ExecRate: 10, ExecBurst: 1})
	tx := mkTx(0, 1, 1, 2, 0)
	if v0.base.ChainTip() != 0 {
		t.Fatalf("tip = %d", v0.base.ChainTip())
	}
	// A 5-tx block takes ~0.5s to execute at rate 10.
	v0.base.SubmitBlock(Block{Height: 0, Txs: []Tx{tx, mkTx(0, 2, 1, 2, 0), mkTx(0, 3, 1, 2, 0), mkTx(0, 4, 1, 2, 0), mkTx(0, 5, 1, 2, 0)}})
	if !v0.base.InPipeline(tx.ID) {
		t.Fatal("tx not in pipeline right after SubmitBlock")
	}
	if v0.base.ChainTip() != 1 {
		t.Fatalf("tip = %d while block pending", v0.base.ChainTip())
	}
	sched.RunUntil(2 * time.Second)
	if v0.base.InPipeline(tx.ID) {
		t.Fatal("tx still in pipeline after apply")
	}
	if v0.base.Ledger.Height() != 1 {
		t.Fatalf("height = %d", v0.base.Ledger.Height())
	}
}

func TestBaseNodeProposalTxsSkipsPipeline(t *testing.T) {
	sched, _, v0, _, cl, _ := baseTestSetup(t, BaseConfig{ExecRate: 1, ExecBurst: 1})
	a := mkTx(0, 1, 1, 2, 0)
	b := mkTx(0, 2, 1, 2, 0)
	cl.ctx.Send(0, SubmitTx{Tx: a})
	cl.ctx.Send(0, SubmitTx{Tx: b})
	sched.RunUntil(100 * time.Millisecond)
	// Decide a block containing only a; it executes slowly, so a stays in
	// both the pool and the pipeline for a while.
	v0.base.SubmitBlock(Block{Height: 0, Txs: []Tx{a}})
	got := v0.base.ProposalTxs(10)
	if len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("ProposalTxs = %v, want only b", got)
	}
}

func TestBaseNodeAddExecCostDelaysNextBlock(t *testing.T) {
	sched, _, v0, _, _, mon := baseTestSetup(t, BaseConfig{ExecRate: 100, ExecBurst: 1})
	// 300 units of speculative waste: the next (1-tx) block needs ~3s.
	v0.base.AddExecCost(300)
	v0.base.SubmitBlock(Block{Height: 0, Txs: []Tx{mkTx(0, 1, 1, 2, 0)}})
	sched.RunUntil(2 * time.Second)
	if mon.UniqueCommits() != 0 {
		t.Fatal("block applied before the extra exec cost was paid")
	}
	sched.RunUntil(4 * time.Second)
	if mon.UniqueCommits() != 1 {
		t.Fatalf("commits = %d", mon.UniqueCommits())
	}
}

func TestBaseNodeChargeExecWithoutBudgetIsNoop(t *testing.T) {
	_, _, v0, _, _, _ := baseTestSetup(t, BaseConfig{})
	v0.base.ChargeExec(1e9) // no exec bucket configured: must not panic
	v0.base.AddExecCost(1e9)
	v0.base.SubmitBlock(Block{Height: 0, Txs: []Tx{mkTx(0, 1, 1, 2, 0)}})
}

// TestApplyAllocatesPerBlockNotPerTx: executing a block whose transactions no
// client of this node subscribed to — nine validators in ten, for the default
// client — reads one table cell per transaction and allocates nothing for it:
// a block of 1,024 costs what a block of 8 costs. A subscribed transaction
// does cost its notification.
func TestApplyAllocatesPerBlockNotPerTx(t *testing.T) {
	const runs, big = 20, 1024
	_, _, v, _, _, _ := baseTestSetup(t, BaseConfig{})
	n := v.base
	n.Monitor = nil // its commit log is a per-transaction append of its own
	n.Ledger.VerifyParents = false
	n.Ledger.Mint(1, 1<<40)
	seq := uint32(0)
	*n.Ledger.txs.slot(MakeTxID(7, 3*(runs+1)*big)) = 0 // size the row up front
	block := func(size int) Block {
		b := Block{Height: n.Ledger.Height(), Txs: make([]Tx, size)}
		for i := range b.Txs {
			b.Txs[i] = mkTx(7, seq, 1, 2, 1)
			seq++
		}
		return b
	}
	perBlock := func(size int, subscribe bool) float64 {
		blocks := make([]Block, runs+1)
		for i := range blocks {
			blocks[i] = block(size)
			blocks[i].Height += i
			if subscribe {
				for _, tx := range blocks[i].Txs {
					n.Subscribe(tx.ID, 100)
				}
			}
		}
		i := 0
		return testing.AllocsPerRun(runs, func() { n.apply(blocks[i]); i++ })
	}
	small, large := perBlock(8, false), perBlock(big, false)
	if large != small {
		t.Fatalf("a block of %d unsubscribed transactions costs %.0f allocations, one of 8 costs %.0f", big, large, small)
	}
	if subscribed := perBlock(big, true); subscribed < large+big {
		t.Fatalf("a block of %d subscribed transactions costs %.0f allocations: the notifications went missing", big, subscribed)
	}
	if got, want := n.Ledger.AppliedTxs(), uint64(seq); got != want {
		t.Fatalf("%d of %d transactions executed", got, want)
	}
}
