// CI gate: the paper pitches STABL as "pluggable in continuous integration
// pipelines to measure a blockchain's sensitivity". This example is that
// pipeline stage: it runs the paper suite, a campaign preset, over one system
// — all four fault kinds at the paper's counts, three seeds — prints each
// point's min/median/max score, emits the campaign's JSON artifact, and exits
// non-zero when a regression gate trips: a failed run, liveness lost on some
// seeds but not all (flaky), or a median crash score over its budget.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"stabl"
)

func main() {
	res, err := stabl.RunPaperSuite(context.Background(), stabl.CampaignSpec{
		Systems:    []string{"Redbelly"},
		InjectSecs: []float64{70},
		OutageSecs: []float64{60},
		Seeds:      []int64{1, 2, 3},
		Base:       stabl.Spec{DurationSec: 200},
	}, stabl.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}

	for _, p := range res.Points {
		fmt.Println(p)
	}
	if err := writeArtifact(res); err != nil {
		log.Fatal(err)
	}

	// Gates: fail the build when dependability regresses.
	const crashBudget = 5.0
	failures := 0
	for _, p := range res.Points {
		switch {
		case p.FailedRuns > 0:
			fmt.Printf("GATE: %s/%s failed to run on %d/%d seeds\n", p.System, p.Fault, p.FailedRuns, p.Runs)
			failures++
		case p.InfiniteRuns > 0 && p.InfiniteRuns < p.Runs:
			fmt.Printf("GATE: %s/%s liveness is flaky (%d/%d runs lost it)\n",
				p.System, p.Fault, p.InfiniteRuns, p.Runs)
			failures++
		}
		if p.Fault == stabl.FaultCrash.String() && p.MedianScore > crashBudget {
			fmt.Printf("GATE: %s crash sensitivity %.2f exceeds budget %.1f\n", p.System, p.MedianScore, crashBudget)
			failures++
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
	fmt.Println("all dependability gates passed")
}

func writeArtifact(res *stabl.CampaignResult) error {
	f, err := os.CreateTemp("", "stabl-suite-*.json")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.WriteJSON(f); err != nil {
		return err
	}
	fmt.Printf("suite artifact: %s\n", f.Name())
	return nil
}
