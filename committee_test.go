package stabl

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// committeeGoldenConfig is the pinned committee-mode deployment (golden row
// committee-Algorand): 50 validators, sortition committees of 20, f=t crash
// at seed 42. Large enough that committees are a strict subset of the
// validator set, small enough to run in CI. Committee extraction is a pure
// function of (seed, stakes, round, step), so a drift in its golden means
// sortition consumed scheduler RNG or ordering it must not touch.
func committeeGoldenConfig() Config {
	return Config{
		System:        NewAlgorand(),
		Seed:          42,
		Validators:    50,
		Clients:       40,
		CommitteeSize: 20,
		Duration:      120 * time.Second,
		Fault:         FaultPlan{Kind: FaultCrash, InjectAt: 40 * time.Second, RecoverAt: 80 * time.Second},
	}
}

// TestCommitteeSuiteWorkerInvariance runs a committee-mode campaign at one
// and at four workers and requires byte-identical results: the memoized
// committee schedule is shared across concurrently running experiments, so
// cache-hit races must never leak into results.
func TestCommitteeSuiteWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("committee campaign invariance skipped in -short mode")
	}
	base := committeeGoldenConfig()
	spec := CampaignSpec{
		Systems:        []string{"Algorand"},
		Faults:         []string{"crash", "transient"},
		InjectSecs:     []float64{20},
		OutageSecs:     []float64{20},
		CommitteeSizes: []int{base.CommitteeSize},
		Seeds:          []int64{1, 2},
		Base:           Spec{Validators: base.Validators, Clients: base.Clients, DurationSec: 60},
	}
	run := func(workers int) []byte {
		res, err := RunCampaign(context.Background(), spec, CampaignOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedCells > 0 {
			t.Fatalf("%d of %d cells failed", res.FailedCells, res.TotalCells)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if serial, parallel := run(1), run(4); !bytes.Equal(serial, parallel) {
		t.Fatalf("campaign results differ across worker counts:\n 1 worker: %s\n 4 workers: %s", serial, parallel)
	}
}

// TestCommitteeShrinksProtocolWork is the scale claim itself: with the
// deployment fixed, per-round protocol traffic must track committee size,
// not validator count. A 60-validator run with 16-seat committees has to
// send far fewer messages than the same run voting with all 60. The
// workload stays light so consensus votes — not the O(n)-per-tx mempool
// gossip both modes share — dominate the message count.
func TestCommitteeShrinksProtocolWork(t *testing.T) {
	if testing.Short() {
		t.Skip("committee traffic comparison skipped in -short mode")
	}
	run := func(size int) *RunResult {
		res, err := Run(Config{
			System:        NewAlgorand(),
			Seed:          42,
			Validators:    60,
			Clients:       4,
			RatePerClient: 2,
			CommitteeSize: size,
			Duration:      60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.LivenessLost {
			t.Fatalf("committee size %d lost liveness; last commit %v", size, res.LastCommitAt)
		}
		return res
	}
	full, small := run(0), run(16)
	if small.UniqueCommits < small.Submitted*9/10 {
		t.Fatalf("committee mode committed %d of %d", small.UniqueCommits, small.Submitted)
	}
	if small.NetStats.Sent*2 > full.NetStats.Sent {
		t.Fatalf("16-seat committees sent %d messages vs %d at full membership; expected under half",
			small.NetStats.Sent, full.NetStats.Sent)
	}
}
