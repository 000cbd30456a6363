package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"stabl/internal/chain"
	"stabl/internal/core"
)

// Cell identifies one point of the fault space. Dimensions that do not
// apply to the cell's fault kind are zero: OutageSec for faults that never
// heal, SlowBySec for everything but the slow fault, Count and InjectSec for
// faults that touch no validator (secure-client).
type Cell struct {
	System    string  `json:"system"`
	Fault     string  `json:"fault,omitempty"`
	Count     int     `json:"count,omitempty"`
	InjectSec float64 `json:"injectSec,omitempty"`
	OutageSec float64 `json:"outageSec,omitempty"`
	SlowBySec float64 `json:"slowBySec,omitempty"`
	// Scenario / Intensity identify a scenario cell (Fault and the fault
	// dimensions are empty then): the named spec scaled by Intensity.
	Scenario  string  `json:"scenario,omitempty"`
	Intensity float64 `json:"intensity,omitempty"`
	// CommitteeSize is the sortition committee size the cell deploys with
	// (0 = full membership); the campaign's scale axis.
	CommitteeSize int `json:"committeeSize,omitempty"`
	// Overlay is the gossip-overlay topology the cell deploys with
	// ("" = legacy full mesh); the campaign's overlay axis.
	Overlay string `json:"overlay,omitempty"`
	Seed    int64  `json:"seed"`
}

// Key renders the cell's coordinate without the seed, the grouping unit for
// cross-seed aggregation.
func (c Cell) Key() string {
	// The committee suffix appears only when the axis is active, keeping
	// classic campaign keys (and downstream labels) byte-stable.
	comm := ""
	if c.CommitteeSize > 0 {
		comm = fmt.Sprintf(" committee=%d", c.CommitteeSize)
	}
	if c.Overlay != "" {
		comm += fmt.Sprintf(" overlay=%s", c.Overlay)
	}
	if c.Scenario != "" {
		return fmt.Sprintf("%s/scenario:%s x%g%s", c.System, c.Scenario, c.Intensity, comm)
	}
	return fmt.Sprintf("%s/%s f=%d inject=%gs outage=%gs slow=%gs%s",
		c.System, c.Fault, c.Count, c.InjectSec, c.OutageSec, c.SlowBySec, comm)
}

// String renders the full cell coordinate.
func (c Cell) String() string { return fmt.Sprintf("%s seed=%d", c.Key(), c.Seed) }

// Slug renders the full cell coordinate as a filesystem-safe unique name,
// used for per-cell metrics dumps.
func (c Cell) Slug() string {
	comm := ""
	if c.CommitteeSize > 0 {
		comm = fmt.Sprintf("-c%d", c.CommitteeSize)
	}
	if c.Overlay != "" {
		comm += fmt.Sprintf("-ov-%s", c.Overlay)
	}
	if c.Scenario != "" {
		return fmt.Sprintf("%s-scenario-%s-x%g%s-seed%d",
			strings.ToLower(c.System), c.Scenario, c.Intensity, comm, c.Seed)
	}
	return fmt.Sprintf("%s-%s-f%d-i%gs-o%gs-d%gs%s-seed%d",
		strings.ToLower(c.System), c.Fault, c.Count,
		c.InjectSec, c.OutageSec, c.SlowBySec, comm, c.Seed)
}

// expand materializes the spec's grid: systems × committee sizes × overlays ×
// faults × counts × inject times × outages × slow-bys × seeds, with
// inapplicable dimensions collapsed per fault kind so the grid holds no
// duplicate coordinates, and each node fault's counts resolved by counts.
// The order is deterministic: dimensions nest in the order above, seeds vary
// fastest.
func expand(spec Spec, resolve func(string) (chain.System, error), counts countRule) ([]Cell, error) {
	validators := spec.Base.Validators
	if validators == 0 {
		validators = 10
	}

	var cells []Cell
	for _, sysName := range spec.Systems {
		sys, err := resolve(sysName)
		if err != nil {
			return nil, err
		}
		tolerance := sys.Tolerance(validators)
		for _, committee := range spec.CommitteeSizes {
			for _, ov := range spec.Overlays {
				for _, faultName := range spec.Faults {
					kind, err := core.ParseFaultKind(faultName)
					if err != nil {
						return nil, err
					}

					faultCounts := []int{0}
					injects := []float64{0}
					if kind.NeedsNodes() {
						faultCounts = counts(spec, kind, tolerance)
						injects = spec.InjectSecs
					}
					outages := []float64{0}
					if kind.Recovers() {
						outages = spec.OutageSecs
					}
					slows := []float64{0}
					if kind == core.FaultSlow {
						slows = spec.SlowBySecs
					}

					for _, count := range faultCounts {
						for _, inject := range injects {
							for _, outage := range outages {
								for _, slow := range slows {
									for _, seed := range spec.Seeds {
										cells = append(cells, Cell{
											System:        sysName,
											Fault:         faultName,
											Count:         count,
											InjectSec:     inject,
											OutageSec:     outage,
											SlowBySec:     slow,
											CommitteeSize: committee,
											Overlay:       ov,
											Seed:          seed,
										})
									}
								}
							}
						}
					}
				}
				for _, sc := range spec.Scenarios {
					for _, intensity := range spec.Intensities {
						for _, seed := range spec.Seeds {
							cells = append(cells, Cell{
								System:        sysName,
								Scenario:      sc.Name,
								Intensity:     intensity,
								CommitteeSize: committee,
								Overlay:       ov,
								Seed:          seed,
							})
						}
					}
				}
			}
		}
	}
	return sample(spec, cells), nil
}

// countRule resolves a node fault's counts from the system's tolerance t.
type countRule func(spec Spec, kind core.FaultKind, t int) []int

// paperCounts is the paper suite's rule: one count per kind, the paper's.
func paperCounts(_ Spec, kind core.FaultKind, t int) []int {
	return []int{core.PaperFaultCount(kind, t)}
}

// deltaCounts is the campaign's rule: the distinct positive counts t + d over
// CountDeltas, ascending. Deltas below f=1 are dropped: killing zero nodes is
// the baseline, not a fault.
func deltaCounts(spec Spec, _ core.FaultKind, t int) []int {
	seen := make(map[int]bool, len(spec.CountDeltas))
	var counts []int
	for _, d := range spec.CountDeltas {
		f := t + d
		if f < 1 || seen[f] {
			continue
		}
		seen[f] = true
		counts = append(counts, f)
	}
	sort.Ints(counts)
	return counts
}

// sample draws spec.Sample cells without replacement (seeded by
// spec.SampleSeed), preserving the grid order, so huge grids can be probed
// deterministically.
func sample(spec Spec, cells []Cell) []Cell {
	if spec.Sample <= 0 || spec.Sample >= len(cells) {
		return cells
	}
	rng := rand.New(rand.NewSource(spec.SampleSeed))
	picks := rng.Perm(len(cells))[:spec.Sample]
	sort.Ints(picks)
	out := make([]Cell, 0, len(picks))
	for _, i := range picks {
		out = append(out, cells[i])
	}
	return out
}
