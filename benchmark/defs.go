// Package benchmark is the repo's one cost model: five named workloads
// driven through the simulator's public phase functions, end-to-end metrics
// measured with tracing off, and per-layer attribution taken from outside
// the program in a separate traced pass. README.md in this directory records
// why each workload exists and how the metrics interact; BENCHMARK.json at
// the repo root declares them to the driver.
//
// The benchmark reports two kinds of number and says which is which. Host
// numbers (wall time, allocations, heap) are noisy: every repetition runs in
// a fresh child process and the median is reported. Simulated numbers
// (events, sends, commits) are exact for a seed: a change that only speeds
// the simulator up must leave them identical, and every repetition is
// checked to reproduce them.
package benchmark

import "sort"

// Def declares one metric: its name, unit and which direction is better.
// Bound is set on end-to-end metrics only: the share of the parent's median
// by which the metric may worsen before a change counts as a regression.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics a user of the simulator sees, measured with
// tracing off on every workload. BENCHMARK.json repeats this table; a test
// keeps the two equal.
//
// These bounds are the driver's, and they answer the driver's question: it
// takes a metric's spread across ten different seeds and refuses a bound the
// spread exceeds, so each bound is three times the widest cross-seed spread
// any workload showed, up to the 0.25 the driver allows (README.md has the
// table). scale-kadcast sets every one of them: its event count and commits
// swing with the seed. Two result documents of one seed are judged by
// -compare's far tighter gates instead (compare.go).
var EndToEnd = []Def{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_us_per_commit", Unit: "us/tx", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_commit", Unit: "objects/tx", Better: "lower", Bound: 0.12},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.16},
	{Name: "committed_share", Unit: "ratio", Better: "higher", Bound: 0.2},
}

// PerLayer are the single-layer metrics of the traced pass, prefixed by the
// module they describe. They carry no bound. A workload reports the ones
// whose layer it runs; the driver's result line fills the rest with zero.
var PerLayer = []Def{
	// core: phase spans around the public phase calls.
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.start_s", Unit: "s", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.collect_s", Unit: "s", Better: "lower"},
	{Name: "core.score_s", Unit: "s", Better: "lower"},
	{Name: "core.run_pre_fault_s", Unit: "s", Better: "lower"},
	{Name: "core.run_fault_s", Unit: "s", Better: "lower"},
	{Name: "core.run_post_fault_s", Unit: "s", Better: "lower"},
	{Name: "core.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.us_per_event", Unit: "us", Better: "lower"},
	// sim: the event queue, sequential and parallel.
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_commit", Unit: "events/tx", Better: "lower"},
	{Name: "sim.queue_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.queue_model_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.par_windows", Unit: "count", Better: "lower"},
	{Name: "sim.par_busy_over_critical", Unit: "ratio", Better: "higher"},
	{Name: "sim.par_wall_speedup", Unit: "ratio", Better: "higher"},
	// simnet: send and deliver.
	{Name: "simnet.sent", Unit: "count", Better: "lower"},
	{Name: "simnet.sends_per_commit", Unit: "msgs/tx", Better: "lower"},
	{Name: "simnet.delivered", Unit: "count", Better: "lower"},
	{Name: "simnet.dropped", Unit: "count", Better: "lower"},
	{Name: "simnet.delivered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "simnet.unicast_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "simnet.broadcast_ns_per_dest", Unit: "ns", Better: "lower"},
	{Name: "simnet.degraded_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "simnet.model_share", Unit: "ratio", Better: "lower"},
	// overlay: structured gossip.
	{Name: "overlay.origins", Unit: "count", Better: "lower"},
	{Name: "overlay.relayed", Unit: "count", Better: "lower"},
	{Name: "overlay.duplicates", Unit: "count", Better: "lower"},
	{Name: "overlay.dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "overlay.sends_per_origin", Unit: "msgs", Better: "lower"},
	{Name: "overlay.deliveries_per_node_per_broadcast", Unit: "msgs", Better: "lower"},
	{Name: "overlay.topology_build_ms", Unit: "ms", Better: "lower"},
	{Name: "overlay.route_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "overlay.model_share", Unit: "ratio", Better: "lower"},
	// committee: sortition.
	{Name: "committee.extract_us", Unit: "us", Better: "lower"},
	{Name: "committee.schedule_hit_ns", Unit: "ns", Better: "lower"},
	// chain: the shared validator building blocks.
	{Name: "chain.commits", Unit: "count", Better: "higher"},
	{Name: "chain.max_height", Unit: "count", Better: "higher"},
	{Name: "chain.mempool_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "chain.ledger_append_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "chain.residual_share", Unit: "ratio", Better: "lower"},
	// The five chain models: baseline+altered RunUntil spans.
	{Name: "algorand.run_s", Unit: "s", Better: "lower"},
	{Name: "algorand.us_per_event", Unit: "us", Better: "lower"},
	{Name: "aptos.run_s", Unit: "s", Better: "lower"},
	{Name: "aptos.us_per_event", Unit: "us", Better: "lower"},
	{Name: "avalanche.run_s", Unit: "s", Better: "lower"},
	{Name: "avalanche.us_per_event", Unit: "us", Better: "lower"},
	{Name: "redbelly.run_s", Unit: "s", Better: "lower"},
	{Name: "redbelly.us_per_event", Unit: "us", Better: "lower"},
	{Name: "solana.run_s", Unit: "s", Better: "lower"},
	{Name: "solana.us_per_event", Unit: "us", Better: "lower"},
	// client, stats, metrics, scenario.
	{Name: "client.submitted", Unit: "count", Better: "higher"},
	{Name: "client.pending", Unit: "count", Better: "lower"},
	{Name: "stats.sensitivity_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.record_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "scenario.compile_us", Unit: "us", Better: "lower"},
	// snapshot and campaign: the fork path.
	{Name: "snapshot.fork_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.rewind_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.cells", Unit: "count", Better: "higher"},
	{Name: "campaign.fork_served", Unit: "count", Better: "higher"},
	{Name: "campaign.full_replays", Unit: "count", Better: "lower"},
	{Name: "campaign.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "campaign.cell_ms_max", Unit: "ms", Better: "lower"},
	{Name: "campaign.parse_expand_ms", Unit: "ms", Better: "lower"},
	// runtime: the Go runtime underneath, read from an untraced repetition.
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime.allocs_per_event", Unit: "objects", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: "lower"},
	// prof: CPU-profile self time by package, traced pass only.
	{Name: "prof.sim_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.simnet_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.overlay_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.chain_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.system_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.client_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.committee_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.metrics_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.snapshot_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.runtime_gc_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.runtime_other_share", Unit: "ratio", Better: "lower"},
	{Name: "prof.other_share", Unit: "ratio", Better: "lower"},
	// trace: what the traced pass itself costs.
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Stat summarizes an end-to-end metric over a workload's repetitions. Host
// metrics differ between repetitions; the median is the reported value.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) Stat {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Stat{Unit: unit, Median: median(sorted), Min: sorted[0], Max: sorted[len(sorted)-1], Values: values}
}

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// layerValues collects per-layer metrics by name; units come from PerLayer,
// so a metric cannot be emitted under a name the benchmark never declared.
type layerValues map[string]Value

var layerUnits = func() map[string]string {
	units := make(map[string]string, len(PerLayer))
	for _, d := range PerLayer {
		units[d.Name] = d.Unit
	}
	return units
}()

func (l layerValues) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("benchmark: per-layer metric " + name + " is not declared in PerLayer")
	}
	l[name] = Value{Value: v, Unit: unit}
}
