package core

import (
	"testing"
	"time"

	"stabl/internal/algorand"
	"stabl/internal/chain"
	"stabl/internal/redbelly"
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
	for _, v := range e.validators {
		top = max(top, v.Base().Ledger.Height())
	}
	var first *chain.Ledger
	atTop := 0
	for _, v := range e.validators {
		b := v.Base()
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
	if top < 2*8 || atTop < len(e.validators)/2 {
		t.Fatalf("workers %d: %d of %d validators reached height %d; the run must commit past the memo's window for the check to mean anything",
			workers, atTop, len(e.validators), top)
	}
}

// TestValidatorsShareBlocks: after a fault-free Redbelly run, every
// validator's block at each height holds one transaction array, by pointer —
// each superblock merged once per deployment, not once per validator — on
// the sequential kernel and on the parallel one, and again after a rewind
// replays heights the memo had moved past.
func TestValidatorsShareBlocks(t *testing.T) {
	for _, workers := range []int{0, 2} {
		e, err := Build(Config{
			System:     redbelly.Default(),
			Seed:       42,
			Validators: 10,
			Clients:    5,
			Duration:   60 * time.Second,
			SimWorkers: workers,
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
		checkSharedBlocks(t, e, workers)
		if fork != nil {
			fork.Rewind()
			e.RunUntil(e.Config().Duration)
			checkSharedBlocks(t, e, workers)
		}
	}
}

func checkSharedBlocks(t *testing.T, e *Experiment, workers int) {
	t.Helper()
	top, checked := 0, 0
	for _, v := range e.validators {
		top = max(top, v.Base().Ledger.Height())
	}
	for h := range top {
		var first *chain.Tx
		for _, v := range e.validators {
			b := v.Base()
			blk, err := b.Ledger.Block(h)
			if err != nil || len(blk.Txs) == 0 {
				continue
			}
			switch {
			case first == nil:
				first = &blk.Txs[0]
				checked++
			case &blk.Txs[0] != first:
				t.Fatalf("workers %d: validator %d holds its own array for block %d", workers, b.ID, h)
			}
		}
	}
	if top < 2*8 || checked < top/2 {
		t.Fatalf("workers %d: %d of %d heights hold transactions; the run must commit past the memo's window for the check to mean anything",
			workers, checked, top)
	}
}
