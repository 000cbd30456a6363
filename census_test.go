//go:build census

package stabl

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"stabl/internal/pool"
)

// censusFile lists every (row, seed) of the census that forks, one
// "<row> <seed> <baseline>/<altered>" line each: the integrity entries the
// baseline and the altered run report.
const censusFile = "scripts/census.txt"

// TestIntegrityCensus checks safety over many seeds, not just the goldens'
// 42: every golden configuration but committee-flows-Algorand over seeds
// 1–10, and the paper's four faults on the five chains over seeds 1–5. Each
// comparison whose runs report integrity entries (a fork) must be listed in
// scripts/census.txt with those counts, and every listed pair must still
// fork: a fix deletes its line. It runs under `make census` (the census
// build tag), a few minutes on two CPUs.
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

	lines := make([]string, len(jobs))
	errs := pool.ForEach(context.Background(), len(jobs), 0, func(i int) error {
		cfg, err := jobs[i].cfg()
		if err != nil {
			return err
		}
		cfg.Seed = jobs[i].seed
		cmp, err := Compare(cfg)
		if err != nil {
			return err
		}
		if b, a := len(cmp.Baseline.IntegrityErrors), len(cmp.Altered.IntegrityErrors); b+a > 0 {
			lines[i] = fmt.Sprintf("%s %d %d/%d", jobs[i].row, jobs[i].seed, b, a)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s seed %d: %v", jobs[i].row, jobs[i].seed, err)
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
