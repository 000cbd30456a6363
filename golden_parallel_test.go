package stabl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"stabl/internal/core"
)

// resultFingerprint digests every *measured* output of a run — latencies in
// collection order, the throughput series, commit/submit counters, network
// stats, integrity findings. The parallel-kernel wall-clock measurements
// (SimWorkers/SimWindows/SimBusyWall/SimCriticalWall) are deliberately
// excluded: they describe how the host executed the run, not what the run
// measured, and are the only RunResult fields allowed to differ between
// kernels.
func resultFingerprint(r *RunResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "commits=%d submitted=%d pending=%d last=%d height=%d liveness=%t events=%d\n",
		r.UniqueCommits, r.Submitted, r.Pending, r.LastCommitAt, r.MaxHeight, r.LivenessLost, r.Events)
	fmt.Fprintf(h, "net=%+v\n", r.NetStats)
	fmt.Fprintf(h, "faulty=%v integrity=%v\n", r.FaultyNodes, r.IntegrityErrors)
	fmt.Fprintf(h, "reads=%d mism=%d div=%d\n", r.Reads, r.ReadMismatches, r.ReadDivergences)
	for _, v := range r.Latencies {
		fmt.Fprintf(h, "l %b\n", v)
	}
	for _, v := range r.ReadLatencies {
		fmt.Fprintf(h, "r %b\n", v)
	}
	fmt.Fprintf(h, "bucket=%d\n", r.Throughput.Bucket)
	for _, c := range r.Throughput.Counts {
		fmt.Fprintf(h, "t %d\n", c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenParallelMatchesSequential is the parallel kernel's core
// guarantee: for every system, the seed-42 crash comparison run on the
// parallel kernel at P in {1, 2, 4} is byte-identical — scores to the last
// bit, every latency sample, every network counter, every event count — to
// the sequential kernel's run of the same config.
func TestGoldenParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel golden skipped in -short mode")
	}
	cfg := Config{
		Seed:     42,
		Duration: 120 * time.Second,
		Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 40 * time.Second, RecoverAt: 80 * time.Second},
	}
	for _, sys := range Systems() {
		c := cfg
		c.System = sys
		seq, err := Compare(c)
		if err != nil {
			t.Fatalf("%s sequential: %v", sys.Name(), err)
		}
		seqBase := resultFingerprint(seq.Baseline)
		seqAlt := resultFingerprint(seq.Altered)
		for _, workers := range []int{1, 2, 4} {
			cp := c
			cp.SimWorkers = workers
			par, err := Compare(cp)
			if err != nil {
				t.Fatalf("%s P=%d: %v", sys.Name(), workers, err)
			}
			if par.Score.Infinite != seq.Score.Infinite || par.Score.Value != seq.Score.Value {
				t.Errorf("%s P=%d: score %.17g (inf=%t), sequential %.17g (inf=%t)",
					sys.Name(), workers, par.Score.Value, par.Score.Infinite,
					seq.Score.Value, seq.Score.Infinite)
			}
			if got := resultFingerprint(par.Baseline); got != seqBase {
				t.Errorf("%s P=%d: baseline diverged from sequential\nseq commits=%d events=%d\npar commits=%d events=%d",
					sys.Name(), workers, seq.Baseline.UniqueCommits, seq.Baseline.Events,
					par.Baseline.UniqueCommits, par.Baseline.Events)
			}
			if got := resultFingerprint(par.Altered); got != seqAlt {
				t.Errorf("%s P=%d: altered run diverged from sequential\nseq commits=%d events=%d\npar commits=%d events=%d",
					sys.Name(), workers, seq.Altered.UniqueCommits, seq.Altered.Events,
					par.Altered.UniqueCommits, par.Altered.Events)
			}
			if par.Altered.SimWorkers != workers {
				t.Errorf("%s P=%d: run reported SimWorkers=%d (parallel kernel not engaged)",
					sys.Name(), workers, par.Altered.SimWorkers)
			}
		}
	}
}

// TestGoldenParallelCommittee repeats the byte-identity check on the other
// deployment regime the kernel must cover: committee-mode Algorand (c=64)
// with a flow-aggregated workload and the managed connection layer off — the
// scale suite's configuration, where sortition keeps per-round traffic flat
// and most nodes are silent in any given round.
func TestGoldenParallelCommittee(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel committee golden skipped in -short mode")
	}
	cfg := Config{
		System:           NewAlgorand(),
		Seed:             42,
		Validators:       128,
		Clients:          256,
		Flows:            8,
		FlowAccounts:     256,
		RatePerClient:    0.05,
		CommitteeSize:    64,
		Duration:         60 * time.Second,
		DisableConnLayer: true,
	}
	seq, err := Run(cfg)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	want := resultFingerprint(seq)
	for _, workers := range []int{1, 2, 4} {
		cp := cfg
		cp.System = NewAlgorand()
		cp.SimWorkers = workers
		par, err := Run(cp)
		if err != nil {
			t.Fatalf("P=%d: %v", workers, err)
		}
		if par.SimWorkers != workers {
			t.Errorf("P=%d: run reported SimWorkers=%d (parallel kernel not engaged)", workers, par.SimWorkers)
		}
		if got := resultFingerprint(par); got != want {
			t.Errorf("P=%d: committee run diverged from sequential\nseq commits=%d events=%d height=%d\npar commits=%d events=%d height=%d",
				workers, seq.UniqueCommits, seq.Events, seq.MaxHeight,
				par.UniqueCommits, par.Events, par.MaxHeight)
		}
	}
}

// TestParallelRunUntilInSlices pins Experiment.RunUntil's re-entrancy under
// the parallel kernel: advancing a SimWorkers=2 run in 1 s slices must equal
// advancing it in one call, and both must equal the sequential kernel.
// (runParallel used to close its worker channels on return, so the second
// slice panicked.)
func TestParallelRunUntilInSlices(t *testing.T) {
	cfg := Config{
		System:   NewRedbelly(),
		Seed:     42,
		Duration: 30 * time.Second,
		Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 10 * time.Second, RecoverAt: 20 * time.Second},
	}
	run := func(workers int, slice time.Duration) string {
		t.Helper()
		c := cfg
		c.System = NewRedbelly()
		c.SimWorkers = workers
		e, err := core.Build(c)
		if err != nil {
			t.Fatalf("P=%d: %v", workers, err)
		}
		e.Start()
		for e.Now() < cfg.Duration {
			e.RunUntil(min(e.Now()+slice, cfg.Duration))
		}
		r := e.Collect()
		if r.SimWorkers != workers {
			t.Fatalf("P=%d: run reported SimWorkers=%d", workers, r.SimWorkers)
		}
		return resultFingerprint(r)
	}
	want := run(0, cfg.Duration)
	if got := run(2, cfg.Duration); got != want {
		t.Errorf("P=2 in one call diverged from sequential")
	}
	if got := run(2, time.Second); got != want {
		t.Errorf("P=2 in 1 s slices diverged from sequential")
	}
}
