package stabl

import (
	"reflect"
	"testing"
	"time"
)

// committeeGoldenConfig is the pinned committee-mode deployment: 50
// validators, sortition committees of 20, f=t crash at seed 42. Large enough
// that committees are a strict subset of the validator set, small enough to
// run in CI.
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

// TestGoldenCommitteeSeed42 pins the exact score, commit counts and
// scheduler-event count of committee-mode Algorand at seed 42. Committee
// extraction is a pure function of (seed, stakes, round, step), so the values
// must reproduce byte-for-byte on every run; a drift means sortition consumed
// scheduler RNG or ordering it must not touch.
func TestGoldenCommitteeSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("committee golden skipped in -short mode")
	}
	const (
		wantScore    = 3.0385571681782935
		wantBaseline = 188619
		wantAltered  = 189250
		wantEvents   = 9032194
	)
	cmp, err := Compare(committeeGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Score.Infinite {
		t.Fatalf("score became infinite, want %v", wantScore)
	}
	if cmp.Score.Value != wantScore {
		t.Errorf("score = %.17g, want %.17g", cmp.Score.Value, wantScore)
	}
	if cmp.Baseline.UniqueCommits != wantBaseline || cmp.Altered.UniqueCommits != wantAltered {
		t.Errorf("commits = %d/%d, want %d/%d",
			cmp.Baseline.UniqueCommits, cmp.Altered.UniqueCommits, wantBaseline, wantAltered)
	}
	if cmp.Altered.Events != wantEvents {
		t.Errorf("altered run fired %d events, want %d", cmp.Altered.Events, wantEvents)
	}
}

// TestCommitteeSuiteWorkerInvariance runs a committee-mode suite at one and
// at four workers and requires identical aggregates: the memoized committee
// schedule is shared across concurrently running experiments, so cache-hit
// races must never leak into results.
func TestCommitteeSuiteWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("committee suite invariance skipped in -short mode")
	}
	base := committeeGoldenConfig()
	base.Duration = 60 * time.Second
	base.Fault = FaultPlan{InjectAt: 20 * time.Second, RecoverAt: 40 * time.Second}
	run := func(workers int) *SuiteResult {
		res, err := RunSuite(SuiteConfig{
			Base:    base,
			Systems: []System{NewAlgorand()},
			Faults:  []FaultKind{FaultCrash, FaultTransient},
			Seeds:   []int64{1, 2},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("suite results differ across worker counts:\n 1 worker: %+v\n 4 workers: %+v", serial, parallel)
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
