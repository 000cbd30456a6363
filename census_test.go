//go:build census

package stabl

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stabl/internal/core"
	"stabl/internal/pool"
)

// censusFile lists every (row, seed) of the census that forks, one
// "<row> <seed> <baseline>/<altered>" line each: the integrity entries the
// baseline and the altered run report.
const censusFile = "scripts/census.txt"

// TestIntegrityCensus checks safety and determinism over many seeds, not
// just the goldens' 42: every golden configuration but
// committee-flows-Algorand over seeds 1–10, and the paper's four faults on
// the five chains over seeds 1–5. Each comparison whose runs report
// integrity entries (a fork) must be listed in scripts/census.txt with those
// counts, and every listed pair must still fork: a fix deletes its line.
// Each comparison also runs twice, the second time with a fresh baseline
// and an altered run that resumes from a rewound checkpoint (rerun), and
// both must render the same text. The comparisons whose baseline configs
// are equal (BaselineConfig drops the fault, so the four paper faults of one
// chain and seed share one) score against one baseline per pass. It runs
// under `make census` (the census build tag), several minutes on two CPUs.
func TestIntegrityCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("the census runs 290 comparisons")
	}
	type job struct {
		row  string
		seed int64
		cfg  func() (Config, error)
	}
	var jobs []job
	for _, row := range goldenRows() {
		if row.name == "committee-flows-Algorand" {
			continue
		}
		for seed := int64(1); seed <= 10; seed++ {
			jobs = append(jobs, job{row.name, seed, row.config})
		}
	}
	for _, kind := range []FaultKind{FaultCrash, FaultTransient, FaultPartition, FaultSecureClient} {
		for _, sys := range Systems() {
			name := sys.Name()
			for seed := int64(1); seed <= 5; seed++ {
				jobs = append(jobs, job{fmt.Sprintf("paper-%s-%s", kind, name), seed, func() (Config, error) {
					sys, err := SystemByName(name)
					return Config{System: sys, Fault: FaultPlan{Kind: kind}}, err
				}})
			}
		}
	}

	cfgs := make([]Config, len(jobs))
	shared := make([]*censusBaselines, len(jobs))
	byKey := map[string]*censusBaselines{}
	for i, j := range jobs {
		cfg, err := j.cfg()
		if err != nil {
			t.Fatalf("%s seed %d: %v", j.row, j.seed, err)
		}
		cfg.Seed = j.seed
		if cfg.Profile != nil {
			t.Fatalf("%s: a Profile is a func, which the baseline key cannot tell apart", j.row)
		}
		base := core.BaselineConfig(cfg)
		name := base.System.Name() // every job takes its system from SystemByName
		base.System = nil
		key := fmt.Sprintf("%s %+v", name, base)
		if byKey[key] == nil {
			byKey[key] = &censusBaselines{}
		}
		cfgs[i], shared[i] = cfg, byKey[key]
		shared[i].users.Add(1)
	}

	lines := make([]string, len(jobs))
	diffs := make([]string, len(jobs))
	errs := pool.ForEach(context.Background(), len(jobs), 0, func(i int) error {
		cfg, bs := cfgs[i], shared[i]
		bs.once.Do(func() { bs.first, bs.second, bs.err = runBaselines(cfg) })
		if bs.err != nil {
			return bs.err
		}
		cmp, err := bs.first.Compare(cfg)
		if err != nil {
			return err
		}
		if b, a := len(cmp.Baseline.IntegrityErrors), len(cmp.Altered.IntegrityErrors); b+a > 0 {
			lines[i] = fmt.Sprintf("%s %d %d/%d", jobs[i].row, jobs[i].seed, b, a)
		}
		altered, err := rerun(core.AlteredConfig(cfg))
		if err != nil {
			return err
		}
		again, err := bs.second.Score(cfg, altered)
		if err != nil {
			return err
		}
		if bs.users.Add(-1) == 0 { // the last comparison to use them
			bs.first, bs.second = nil, nil
		}
		diffs[i] = renderDiff(fmt.Sprintf("%s seed %d: second run", jobs[i].row, jobs[i].seed),
			renderComparison(cmp), renderComparison(again))
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s seed %d: %v", jobs[i].row, jobs[i].seed, err)
		}
	}
	for _, diff := range diffs {
		if diff != "" {
			t.Error(diff)
		}
	}

	want := readCensus(t)
	for _, line := range lines {
		if line != "" && !slices.Contains(want, line) {
			t.Errorf("%s forks and is not in %s (or its counts moved)", line, censusFile)
		}
	}
	for _, line := range want {
		if !slices.Contains(lines, line) {
			t.Errorf("%s: listed in %s, but no longer forks with these counts: delete or re-record the line", line, censusFile)
		}
	}
}

// censusBaselines are the two baselines of one baseline config, each run
// from scratch: the first scores every comparison that shares the config,
// the second every second run of them. users counts the comparisons still
// to score, so the last one lets them go.
type censusBaselines struct {
	once          sync.Once
	first, second *core.Baseline
	err           error
	users         atomic.Int32
}

// runBaselines runs cfg's baseline twice.
func runBaselines(cfg Config) (first, second *core.Baseline, err error) {
	var runs [2]*RunResult
	for i := range runs {
		if runs[i], err = core.Run(core.BaselineConfig(cfg)); err != nil {
			return nil, nil, fmt.Errorf("baseline run: %w", err)
		}
	}
	return core.NewBaseline(runs[0]), core.NewBaseline(runs[1]), nil
}

// readCensus returns the census file's pair lines, comments and blanks
// skipped.
func readCensus(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(censusFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
