package core

import (
	"testing"
	"time"

	"stabl/internal/algorand"
	"stabl/internal/chain"
)

// TestValidatorsShareAccounts: after a fault-free committee run, every
// validator at the top height holds the same account version, by pointer —
// one account table per chain, not per validator — on the sequential kernel
// and on the parallel one, whose partitions reach the memo concurrently, and
// again after a rewind replays heights the memo had moved past.
func TestValidatorsShareAccounts(t *testing.T) {
	for _, workers := range []int{0, 2} {
		e, err := Build(Config{
			System:        algorand.Default(),
			Seed:          42,
			Validators:    16,
			Clients:       8,
			CommitteeSize: 8,
			Duration:      120 * time.Second,
			SimWorkers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.sched.Parallel() != (workers > 0) {
			t.Fatalf("workers %d: parallel kernel %v", workers, e.sched.Parallel())
		}
		e.Start()
		e.RunUntil(e.Config().Duration / 4)
		var fork *ForkPoint
		if workers == 0 {
			if fork, err = e.Fork(); err != nil {
				t.Fatal(err)
			}
		}
		e.RunUntil(e.Config().Duration)
		checkShared(t, e, workers)
		if fork != nil {
			fork.Rewind()
			e.RunUntil(e.Config().Duration)
			checkShared(t, e, workers)
		}
	}
}

func checkShared(t *testing.T, e *Experiment, workers int) {
	t.Helper()
	top := 0
	for _, b := range e.bases {
		top = max(top, b.Ledger.Height())
	}
	var first *chain.Ledger
	atTop := 0
	for _, b := range e.bases {
		if b.Ledger.Height() != top {
			continue
		}
		atTop++
		if first == nil {
			first = b.Ledger
		} else if !b.Ledger.SharesAccounts(first) {
			t.Fatalf("workers %d: validator %d holds its own account version at height %d", workers, b.ID, top)
		}
	}
	if top < 2*8 || atTop < len(e.bases)/2 {
		t.Fatalf("workers %d: %d of %d validators reached height %d; the run must commit past the memo's window for the check to mean anything",
			workers, atTop, len(e.bases), top)
	}
}
