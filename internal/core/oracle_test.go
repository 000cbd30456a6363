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

// TestMessageConservation runs the message-conservation oracle mid-run: the
// five chains, fault-free (the baseline both fault kinds share) and under
// the paper's transient and partition faults, seed 42, checked every 10
// virtual seconds and in Collect. Every application message sent must be
// delivered, dropped or still in flight at each check — through the outage,
// the restarts that drop messages in flight and the heal.
func TestMessageConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen 400 s runs skipped in -short mode")
	}
	systems := []chain.System{algorand.Default(), aptos.Default(), avalanche.Default(), redbelly.Default(), solana.Default()}
	for _, sys := range systems {
		for _, kind := range []FaultKind{FaultNone, FaultTransient, FaultPartition} {
			t.Run(fmt.Sprintf("%s/%v", sys.Name(), kind), func(t *testing.T) {
				t.Parallel()
				exp, err := Build(Config{System: sys, Seed: 42, Duration: 400 * time.Second, Fault: FaultPlan{Kind: kind}})
				if err != nil {
					t.Fatal(err)
				}
				exp.Start()
				for at := 10 * time.Second; at <= exp.Config().Duration; at += 10 * time.Second {
					exp.RunUntil(at)
					if err := exp.net.CheckConservation(); err != nil {
						t.Fatalf("at %v: %v", at, err)
					}
				}
				res := exp.Collect()
				if len(res.IntegrityErrors) != 0 {
					t.Fatalf("integrity errors: %q", res.IntegrityErrors)
				}
				if st := res.NetStats; st.Delivered == 0 || (kind != FaultNone && st.Dropped() == 0) {
					t.Fatalf("the oracle saw no traffic to account for: %+v", st)
				}
			})
		}
	}
}
