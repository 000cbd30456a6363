package core

import (
	"fmt"
	"testing"
	"time"

	"stabl/internal/algorand"
	"stabl/internal/aptos"
	"stabl/internal/avalanche"
	"stabl/internal/chain"
	"stabl/internal/redbelly"
	"stabl/internal/solana"
)

// TestNoDoubleCommit is the "no double execution" oracle as a test: the five
// chains run fault-free and under the paper's transient plan (t+1 validators
// down from 133 s to 266 s of 400 s), and afterwards no validator's ledger
// may hold one TxID in two blocks, or twice in one. The monitor cannot see
// this — applyBlock skips a transaction it has already counted, and the
// ledger skips its execution — so a proposer that re-proposes a committed
// transaction would otherwise go unnoticed. The clients' books must close
// against the ledgers too: every submitted transaction is completed or still
// pending, and no more transactions completed than some ledger holds.
func TestNoDoubleCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty 400 s runs skipped in -short mode")
	}
	systems := []chain.System{algorand.Default(), aptos.Default(), avalanche.Default(), redbelly.Default(), solana.Default()}
	plans := []FaultPlan{
		{},
		{Kind: FaultTransient, InjectAt: 133 * time.Second, RecoverAt: 266 * time.Second},
	}
	for _, sys := range systems {
		for _, plan := range plans {
			for _, seed := range []int64{42, 7} {
				t.Run(fmt.Sprintf("%s/%v/seed=%d", sys.Name(), plan.Kind, seed), func(t *testing.T) {
					exp, err := Build(Config{System: sys, Seed: seed, Duration: 400 * time.Second, Fault: plan})
					if err != nil {
						t.Fatal(err)
					}
					exp.Start()
					exp.RunUntil(exp.Config().Duration)
					ledgers := make(map[chain.TxID]struct{})
					for _, b := range exp.bases {
						at := make(map[chain.TxID]int)
						for h := 0; h < b.Ledger.Height(); h++ {
							blk, err := b.Ledger.Block(h)
							if err != nil {
								t.Fatal(err)
							}
							for _, tx := range blk.Txs {
								if first, dup := at[tx.ID]; dup {
									t.Fatalf("validator %v: %v sits in block %d and again in block %d", b.ID, tx.ID, first, h)
								}
								at[tx.ID] = h
								ledgers[tx.ID] = struct{}{}
							}
						}
					}
					if len(ledgers) == 0 {
						t.Fatal("no validator committed anything; the oracle checked nothing")
					}
					completed := 0
					for i, fl := range exp.flows {
						done := len(fl.Latencies())
						if fl.Submitted() != done+fl.PendingCount() {
							t.Errorf("flow %d: %d submitted, %d completed, %d pending", i, fl.Submitted(), done, fl.PendingCount())
						}
						completed += done
					}
					if completed > len(ledgers) {
						t.Errorf("clients saw %d transactions commit, the ledgers hold %d", completed, len(ledgers))
					}
				})
			}
		}
	}
}
