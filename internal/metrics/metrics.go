// Package metrics is the deterministic virtual-time instrumentation layer
// of the STABL reproduction. A Recorder collects counters (tx commits,
// blocks), gauges (mempool depth, client backlog, chain height) and latency
// observations keyed by the simulated clock, plus the protocol-level
// consensus events (round start, commit, timeout, leader change) that the
// chain models emit and the network lifecycle trace the simnet produces.
// The raw streams aggregate into fixed-width interval rows (Intervals), a
// merged run Timeline, JSONL/CSV dumps (WriteJSONL, WriteCSV) and an SVG
// timeline (TimelineSVG).
//
// Determinism: a Recorder adds no randomness and draws nothing from the
// simulation RNG, so attaching one never changes what a run measures, and
// every export is byte-identical across repeated runs of the same seed.
// Concurrency: a Recorder instruments exactly one single-threaded
// simulation run and is NOT safe for concurrent use; parallel campaigns
// attach one fresh Recorder per cell.
package metrics

import (
	"fmt"
	"time"

	"stabl/internal/simnet"
)

// DefaultInterval is the aggregation interval used when NewRecorder is
// given zero.
const DefaultInterval = 5 * time.Second

// EventKind classifies a protocol-level consensus event.
type EventKind int

// Consensus event kinds. The first four are emitted by the chain models;
// the fault markers are annotations added by the experiment harness.
const (
	// EventRoundStart marks a node entering a consensus round/slot.
	EventRoundStart EventKind = iota + 1
	// EventCommit marks a node committing the block of a round/slot.
	EventCommit
	// EventTimeout marks a round-level timer expiring without progress
	// (pacemaker timeout, stuck round, inconclusive poll, silent
	// coordinator, empty leader window).
	EventTimeout
	// EventLeaderChange marks the responsibility for a round moving to a
	// different node (view change, proposer fallback, leader-window
	// rotation, preference flip, sub-round coordinator rotation).
	EventLeaderChange
	// EventFaultInject annotates the experiment's fault injection time.
	EventFaultInject
	// EventFaultRecover annotates the experiment's fault recovery time.
	EventFaultRecover
	// EventPhase annotates one step of a scenario timeline (crash wave,
	// flap cycle, degradation rule install/clear — see internal/scenario).
	EventPhase
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRoundStart:
		return "round-start"
	case EventCommit:
		return "commit"
	case EventTimeout:
		return "timeout"
	case EventLeaderChange:
		return "leader-change"
	case EventFaultInject:
		return "fault-inject"
	case EventFaultRecover:
		return "fault-recover"
	case EventPhase:
		return "phase"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one protocol-level consensus event. Node is the observer that
// emitted it (-1 for harness annotations); Leader is the node responsible
// for the round at that moment, when the protocol has such a notion.
type Event struct {
	At     time.Duration
	Kind   EventKind
	Node   simnet.NodeID
	Round  int
	Leader simnet.NodeID
	Detail string
}

// Sample is one raw (time, value) measurement.
type Sample struct {
	At    time.Duration
	Value float64
}

// RunInfo identifies the run a Recorder instrumented; it heads every
// export.
type RunInfo struct {
	System     string
	Seed       int64
	Fault      string
	Validators int
	Clients    int
	InjectAt   time.Duration
	RecoverAt  time.Duration
	Duration   time.Duration
}

// Recorder accumulates one run's instrumentation. The zero value is not
// usable; construct with NewRecorder.
type Recorder struct {
	interval time.Duration
	recorderState
}

// recorderState is everything a Recorder accumulates, and its checkpoint.
type recorderState struct {
	run      RunInfo
	counters map[string][]Sample
	gauges   map[string][]Sample
	obs      map[string][]Sample
	events   []Event
	trace    []simnet.TraceEvent
}

// NewRecorder creates a Recorder aggregating at the given interval
// (DefaultInterval when zero or negative).
func NewRecorder(interval time.Duration) *Recorder {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Recorder{interval: interval, recorderState: recorderState{
		counters: make(map[string][]Sample),
		gauges:   make(map[string][]Sample),
		obs:      make(map[string][]Sample),
	}}
}

// Interval returns the aggregation interval.
func (r *Recorder) Interval() time.Duration { return r.interval }

// SetRun records the run's identity and duration; the duration bounds the
// interval rows.
func (r *Recorder) SetRun(info RunInfo) { r.run = info }

// Run returns the recorded run identity.
func (r *Recorder) Run() RunInfo { return r.run }

// Count adds delta to a named counter at virtual time at.
func (r *Recorder) Count(at time.Duration, name string, delta float64) {
	r.counters[name] = append(r.counters[name], Sample{At: at, Value: delta})
}

// Gauge records the current value of a named level at virtual time at.
// Within an interval the last sample wins; intervals without a sample carry
// the previous value forward (a halted node's last known level persists).
func (r *Recorder) Gauge(at time.Duration, name string, v float64) {
	r.gauges[name] = append(r.gauges[name], Sample{At: at, Value: v})
}

// Observe records one named distribution sample (e.g. a commit latency in
// seconds) at virtual time at.
func (r *Recorder) Observe(at time.Duration, name string, v float64) {
	r.obs[name] = append(r.obs[name], Sample{At: at, Value: v})
}

// AddEvent appends a protocol event. Events need not arrive in time order;
// aggregation and the Timeline sort stably by time.
func (r *Recorder) AddEvent(ev Event) { r.events = append(r.events, ev) }

// Events returns the protocol events in emission order. The slice is
// shared; callers must not modify it.
func (r *Recorder) Events() []Event { return r.events }

// CounterTotal sums every recorded delta of a counter.
func (r *Recorder) CounterTotal(name string) float64 {
	total := 0.0
	for _, s := range r.counters[name] {
		total += s.Value
	}
	return total
}

// Tracer returns a simnet.Tracer that captures the network lifecycle trace
// into the recorder, for merging into the Timeline.
func (r *Recorder) Tracer() simnet.Tracer {
	return func(ev simnet.TraceEvent) { r.trace = append(r.trace, ev) }
}

// Trace returns the captured network lifecycle events. The slice is
// shared; callers must not modify it.
func (r *Recorder) Trace() []simnet.TraceEvent { return r.trace }
