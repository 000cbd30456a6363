package benchmark

import (
	"bytes"
	_ "embed" // the campaign spec is compiled in, so the command runs from any directory
	"fmt"
	"time"

	"stabl"
	"stabl/internal/campaign"
	"stabl/internal/core"
)

// Workload is one named set of inputs. The names are fixed: later issues
// refer to them.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it); README.md has the long form.
	Why string
	// units are the simulation runs of a phase-driven workload; nil for
	// the campaign workload, which goes through stabl.RunCampaign.
	units func(seed int64, sz size) []unit
	// shape is the input the layer probes are sized after.
	shape func(sz size) shape
}

// Workloads lists the five workloads in report order.
var Workloads = []Workload{
	{
		Name:  "paper-transient",
		Why:   "paper's unit of work: 5 chains, n=10, baseline+altered+score; chain handlers dominate, queue is shallow, no overlay",
		units: paperUnits,
		shape: func(sz size) shape { return shape{validators: 10, depth: 256} },
	},
	{
		Name:  "scale-mesh",
		Why:   "committee Algorand on a full mesh at n=2048: n-1 heap entries per broadcast, so queue, simnet and GC dominate",
		units: func(seed int64, sz size) []unit { return scaleUnits(seed, sz, sz.meshValidators, "", 0) },
		shape: func(sz size) shape {
			return shape{validators: sz.meshValidators, depth: 65536, committee: scaleCommittee}
		},
	},
	{
		Name:  "scale-mesh-par2",
		Why:   "scale-mesh on the parallel kernel with 2 workers: same layers through windowed queues, outboxes and barrier merges",
		units: func(seed int64, sz size) []unit { return scaleUnits(seed, sz, sz.meshValidators, "", 2) },
		shape: func(sz size) shape {
			return shape{validators: sz.meshValidators, depth: 65536, committee: scaleCommittee}
		},
	},
	{
		Name:  "scale-kadcast",
		Why:   "scale deployment at n=512 over the kadcast overlay: router and dupemap do most of the work, relays are unicast",
		units: func(seed int64, sz size) []unit { return scaleUnits(seed, sz, sz.kadcastValidators, "kadcast", 0) },
		shape: func(sz size) shape {
			return shape{validators: sz.kadcastValidators, depth: 65536, committee: scaleCommittee, overlay: "kadcast"}
		},
	},
	{
		Name:  "campaign-fork",
		Why:   "adaptive 16-cell Redbelly campaign: snapshot/fork/rewind, scenario compile, loss/jitter/partition paths, recorders on",
		shape: func(sz size) shape { return shape{validators: 10, depth: 256, campaign: true} },
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// shape is what a workload's layer probes are sized after.
type shape struct {
	validators int
	depth      int // standing event-queue depth
	committee  int
	overlay    string
	campaign   bool
}

// size holds every input dimension. The full size is the benchmark; the
// short size exists for the smoke test and never produces reported numbers.
type size struct {
	paperDuration, paperInject, paperRecover time.Duration
	paperSlice                               time.Duration // RunUntil slice of the traced pass
	meshValidators, kadcastValidators        int
	scaleDuration, scaleSlice                time.Duration
	probeBudget                              time.Duration
	// setupTarget is the total time given to the extra set-up passes.
	setupTarget time.Duration
	// shrinkCampaign cuts the campaign spec to two two-cell families.
	shrinkCampaign bool
	// forkServed is how many campaign cells must come from a checkpoint.
	forkServed int
}

func sizeFor(short bool) size {
	if short {
		return size{
			paperDuration: 20 * time.Second, paperInject: 7 * time.Second, paperRecover: 13 * time.Second,
			paperSlice:     5 * time.Second,
			meshValidators: 64, kadcastValidators: 64,
			scaleDuration: 30 * time.Second, scaleSlice: 5 * time.Second,
			probeBudget:    5 * time.Millisecond,
			shrinkCampaign: true, forkServed: 2,
		}
	}
	return size{
		paperDuration: 400 * time.Second, paperInject: 133 * time.Second, paperRecover: 266 * time.Second,
		paperSlice:     10 * time.Second,
		meshValidators: 2048, kadcastValidators: 512,
		scaleDuration: 30 * time.Second, scaleSlice: time.Second,
		probeBudget: 500 * time.Millisecond,
		setupTarget: 300 * time.Millisecond,
		forkServed:  12,
	}
}

// unit is one simulation run of a workload, or a baseline+altered pair.
type unit struct {
	label string
	// cfg builds the config around a fresh System: a System carries
	// per-deployment state (committee size, schedule memo) that one run
	// must not hand to the next.
	cfg func() core.Config
	// pair runs BaselineConfig(cfg) and AlteredConfig(cfg) and scores them;
	// otherwise cfg runs once as is.
	pair bool
	// slice is the virtual time one RunUntil call of the traced pass covers.
	slice time.Duration
}

// paperUnits is the paper's deployment on all five chains: 10 validators, 5
// clients at 40 tx/s, 400 virtual seconds, connection layer on, a transient
// failure of t+1 nodes from 133 s to 266 s.
func paperUnits(seed int64, sz size) []unit {
	var units []unit
	for _, sys := range stabl.Systems() {
		name := sys.Name()
		units = append(units, unit{
			label: name,
			pair:  true,
			slice: sz.paperSlice,
			cfg: func() core.Config {
				sys, err := stabl.SystemByName(name)
				if err != nil {
					panic(err) // name came from stabl.Systems
				}
				return core.Config{
					System:   sys,
					Seed:     seed,
					Duration: sz.paperDuration,
					Fault: core.FaultPlan{
						Kind:      core.FaultTransient,
						InjectAt:  sz.paperInject,
						RecoverAt: sz.paperRecover,
					},
				}
			},
		})
	}
	return units
}

// The scale deployment: committee-mode Algorand driven by 1024 modelled
// clients folded into 8 flows. The rate puts one burst per flow inside the
// horizon: enough to commit blocks at every size without the per-tx gossip
// drowning the consensus traffic.
const (
	scaleCommittee = 64
	scaleClients   = 1024
	scaleFlows     = 8
	scaleAccounts  = 256
	scaleRate      = 0.05
)

func scaleUnits(seed int64, sz size, validators int, topology string, workers int) []unit {
	return []unit{{
		label: "Algorand",
		slice: sz.scaleSlice,
		cfg: func() core.Config {
			return core.Config{
				System:           stabl.NewAlgorand(),
				Seed:             seed,
				Validators:       validators,
				Clients:          scaleClients,
				Flows:            scaleFlows,
				FlowAccounts:     scaleAccounts,
				RatePerClient:    scaleRate,
				CommitteeSize:    scaleCommittee,
				Duration:         sz.scaleDuration,
				DisableConnLayer: true,
				Overlay:          stabl.OverlayConfig{Topology: topology},
				SimWorkers:       workers,
			}
		},
	}}
}

// campaignSpecJSON is the campaign-fork workload's spec, owned by the
// benchmark so that edits to the repo's example specs cannot move it.
//
//go:embed specs/campaign-fork.json
var campaignSpecJSON []byte

// campaignSpec parses and validates the campaign spec — the campaign
// workload's set-up — and pins it to the seed. It returns the cell count.
func campaignSpec(seed int64, sz size) (campaign.Spec, int, error) {
	spec, err := campaign.ParseSpec(bytes.NewReader(campaignSpecJSON))
	if err != nil {
		return campaign.Spec{}, 0, err
	}
	spec.Seeds = []int64{seed}
	if sz.shrinkCampaign {
		// Two families of two cells: one fault plan, one scenario.
		inject, recover := sz.paperInject.Seconds(), sz.paperRecover.Seconds()
		spec.Faults = []string{"transient"}
		spec.CountDeltas = []int{0, 1}
		spec.InjectSecs = []float64{inject}
		spec.OutageSecs = []float64{recover - inject}
		spec.Intensities = []float64{0.5, 1}
		spec.Scenarios = spec.Scenarios[:1]
		for i := range spec.Scenarios[0].Actions {
			spec.Scenarios[0].Actions[i].AtSec = inject
			spec.Scenarios[0].Actions[i].UntilSec = recover
		}
		spec.Base.DurationSec = sz.paperDuration.Seconds()
	}
	cells, err := campaign.Validate(spec, stabl.SystemByName)
	if err != nil {
		return campaign.Spec{}, 0, fmt.Errorf("campaign-fork spec: %w", err)
	}
	return spec, cells, nil
}
