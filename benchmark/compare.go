package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// gate is how far a metric may worsen between two result documents of one
// seed before -compare reads it as worse: by more than rel of the old median,
// and, where floor is set, by more than floor in the metric's own unit: a
// move within the floor reads same in either direction.
type gate struct{ rel, floor float64 }

// sameSeed holds -compare's gates, ISSUE 12's. They are much tighter than the
// bounds in EndToEnd because they answer another question: those must cover
// how a metric varies across seeds, these only the host noise of one seed
// (1–3 %), and the simulated counts of one seed do not vary at all. The floor
// keeps a set-up of microseconds from reading worse on timer noise.
var sameSeed = map[string]gate{
	"wall_s":             {rel: 0.08},
	"setup_s":            {rel: 0.10, floor: 0.05},
	"wall_us_per_commit": {rel: 0.08},
	"allocs_per_commit":  {rel: 0.02},
	"live_heap_mb":       {rel: 0.05},
	"committed_share":    {rel: 0.001},
}

// countGate is the gate on the exact per-commit counts: a protocol or
// overlay change may move them, a simulator-only change may not, and nothing
// may raise them by more than this unnoticed.
var countGate = gate{rel: 0.01}

// Compare prints one row per (workload, end-to-end metric) of two result
// documents of the same seed: both medians, the run-to-run spread, the gate
// and a verdict.
//
//	same        the medians differ by no more than the gate
//	worse       new is worse than old by more than the gate
//	better      every new repetition beats every old one, by more than the spread
//	unresolved  the spread is wider than the gate, so "same" cannot be told from "worse"
//
// Per workload it adds the exact per-commit counts as rows of their own,
// says whether all simulated counts agree, and reads more failed operations
// as worse. It returns true when anything reads worse.
func Compare(w io.Writer, oldPath, newPath string) (bool, error) {
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s  %s, %d CPUs\nnew: %s  %s, %d CPUs\n\n",
		oldPath, oldDoc.GoVersion, oldDoc.NumCPU, newPath, newDoc.GoVersion, newDoc.NumCPU)
	fmt.Fprintf(w, "%-16s %-24s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "old", "new", "change", "spread", "gate", "verdict")
	anyWorse := false
	row := func(workload string, d Def, g gate, o, n Stat) {
		verdict, change, spread := judge(d.Better, g, o, n)
		anyWorse = anyWorse || verdict == "worse"
		fmt.Fprintf(w, "%-16s %-24s %12.6g %12.6g %+7.1f%% %7.1f%% %5.1f%%  %s\n",
			workload, d.Name, o.Median, n.Median, 100*change, 100*spread, 100*g.rel, verdict)
	}
	for _, nr := range newDoc.Results {
		var or *Result
		for _, r := range oldDoc.Results {
			if r.Workload == nr.Workload {
				or = r
			}
		}
		if or == nil || or.EndToEnd == nil || nr.EndToEnd == nil {
			continue
		}
		if or.Seed != nr.Seed {
			return false, fmt.Errorf("%s: old ran seed %d, new seed %d; the gates hold for one seed only", nr.Workload, or.Seed, nr.Seed)
		}
		for _, d := range EndToEnd {
			row(nr.Workload, d, sameSeed[d.Name], or.EndToEnd[d.Name], nr.EndToEnd[d.Name])
		}
		if oc, nc := or.Counts, nr.Counts; oc.Events > 0 && nc.Events > 0 {
			perCommit := func(c Counts, v uint64) Stat {
				return newStat("1/tx", []float64{float64(v) / float64(c.Commits)})
			}
			row(nr.Workload, Def{Name: "sim.events_per_commit", Better: "lower"}, countGate,
				perCommit(oc, oc.Events), perCommit(nc, nc.Events))
			row(nr.Workload, Def{Name: "simnet.sends_per_commit", Better: "lower"}, countGate,
				perCommit(oc, oc.Sent), perCommit(nc, nc.Sent))
		}
		counts := "identical"
		if or.Counts != nr.Counts {
			counts = fmt.Sprintf("DIFFER (old %+v, new %+v)", or.Counts, nr.Counts)
		}
		fmt.Fprintf(w, "%-16s simulated counts %s; sim_digest %s -> %s\n",
			nr.Workload, counts, or.SimDigest[:12], nr.SimDigest[:12])
		failed := "same"
		if nr.Failed > or.Failed {
			failed, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "%-16s failed operations %d of %d -> %d of %d  %s\n\n",
			nr.Workload, or.Failed, or.Attempted, nr.Failed, nr.Attempted, failed)
	}
	return anyWorse, nil
}

// judge compares one metric. change is the relative move of the median,
// positive when new is worse; spread is the wider of the two sides'
// (max−min)/median.
func judge(better string, g gate, o, n Stat) (verdict string, change, spread float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	change = sign * (n.Median - o.Median) / o.Median
	spread = max((o.Max-o.Min)/o.Median, (n.Max-n.Min)/n.Median)
	// Every new repetition on the good side of every old one.
	clear := n.Max < o.Min
	if better == "higher" {
		clear = n.Min > o.Max
	}
	switch {
	case g.floor > 0 && math.Abs(n.Median-o.Median) <= g.floor:
		return "same", change, spread
	case clear && -change > spread:
		return "better", change, spread
	case spread > g.rel:
		return "unresolved", change, spread
	case change > g.rel:
		return "worse", change, spread
	}
	return "same", change, spread
}

func readDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(Document)
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}
