// Package scenario is STABL's fault-injection timeline: a Scenario composes
// an ordered timeline of typed actions — crash, restart, partition, heal,
// slow, loss, jitter, flap, eclipse — over named node sets, and compiles into
// the virtual-time observer script every run's primary executes. A
// core.FaultPlan — exactly one fault kind with one inject/recover window, the
// paper's four environments — is the one-action case: core lowers it to a
// Go-built Scenario and compiles it here too. Composite, time-varying
// perturbations (cascading crashes, flapping links, lossy/jittery WANs,
// rolling restarts) are therefore first-class experiments: deterministic,
// JSON-serializable, scored with the same sensitivity metric, and sweepable
// by the campaign engine.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Op is one action verb of the scenario grammar.
type Op string

// The scenario action verbs.
const (
	// OpCrash kills the nodes (auto-restarting them at untilSec, if set).
	OpCrash Op = "crash"
	// OpRestart reboots previously crashed nodes.
	OpRestart Op = "restart"
	// OpPartition isolates the nodes from every other validator
	// (auto-healing at untilSec, if set).
	OpPartition Op = "partition"
	// OpHeal removes the nodes' partition rules.
	OpHeal Op = "heal"
	// OpSlow installs a fixed netem delay on the nodes' interfaces
	// (auto-removed at untilSec, if set).
	OpSlow Op = "slow"
	// OpLoss installs probabilistic packet loss on the nodes' interfaces
	// (auto-removed at untilSec, if set).
	OpLoss Op = "loss"
	// OpJitter installs bounded latency jitter on the nodes' interfaces
	// (auto-removed at untilSec, if set).
	OpJitter Op = "jitter"
	// OpFlap toggles a partition of the nodes on and off between atSec
	// and untilSec, modelling a flapping link.
	OpFlap Op = "flap"
	// OpEclipse cuts each targeted node off from its gossip-overlay
	// neighbors only (auto-healing at untilSec, if set): the victim stays
	// nominally connected but every overlay path it relays on is severed —
	// the eclipse attack surface of structured overlays. Without an
	// overlay it degrades to a full isolation of each victim.
	OpEclipse Op = "eclipse"
)

// Ops lists every action verb, in grammar order.
func Ops() []Op {
	return []Op{OpCrash, OpRestart, OpPartition, OpHeal, OpSlow, OpLoss, OpJitter, OpFlap, OpEclipse}
}

// Spec is the JSON form of a scenario:
//
//	{
//	  "name": "cascade",
//	  "actions": [
//	    {"op": "crash", "atSec": 100, "nodes": "7"},
//	    {"op": "crash", "atSec": 120, "nodes": "8,9", "untilSec": 240},
//	    {"op": "loss", "atSec": 150, "nodes": "all", "rate": 0.05, "untilSec": 300}
//	  ]
//	}
type Spec struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Actions     []ActionSpec `json:"actions,omitempty"`
}

// ActionSpec is the JSON form of one timeline action. Which parameters are
// required depends on the op; Build validates the combination.
type ActionSpec struct {
	// Op is the action verb: crash, restart, partition, heal, slow,
	// loss, jitter or flap.
	Op string `json:"op"`
	// AtSec is when the action starts.
	AtSec float64 `json:"atSec"`
	// Nodes selects the targets (see NodeSet for the grammar).
	Nodes string `json:"nodes"`
	// UntilSec, when set, auto-reverts the action at that instant
	// (restart after crash, heal after partition, rule removal for
	// slow/loss/jitter, end of the flapping window). For rolling node
	// sets, untilSec-atSec is the per-group outage instead.
	UntilSec float64 `json:"untilSec,omitempty"`
	// Rate is the loss probability in (0, 1] (op loss).
	Rate float64 `json:"rate,omitempty"`
	// DelaySec is the injected fixed delay (op slow).
	DelaySec float64 `json:"delaySec,omitempty"`
	// JitterSec is the jitter bound (op jitter).
	JitterSec float64 `json:"jitterSec,omitempty"`
	// PeriodSec is the flap cycle length; the link is down for the first
	// half and up for the second (op flap, unless onSec/offSec are set).
	PeriodSec float64 `json:"periodSec,omitempty"`
	// OnSec/OffSec override the flap duty cycle: down for onSec, up for
	// offSec, repeated until untilSec.
	OnSec  float64 `json:"onSec,omitempty"`
	OffSec float64 `json:"offSec,omitempty"`
}

// ParseSpec decodes a scenario spec from JSON, rejecting unknown fields so
// typo'd keys fail loudly instead of silently running a different scenario.
func ParseSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	return spec, nil
}

// Parse decodes and validates a scenario in one step.
func Parse(r io.Reader) (*Scenario, error) {
	spec, err := ParseSpec(r)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// WriteJSON encodes the spec as indented JSON.
func (s Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Scaled returns a copy with every degradation magnitude (loss rate, slow
// delay, jitter bound) multiplied by intensity — the campaign engine's knob
// for sweeping a scenario's severity without re-authoring its timeline.
// Rates are capped at 1.
func (s Spec) Scaled(intensity float64) Spec {
	out := s
	out.Actions = make([]ActionSpec, len(s.Actions))
	copy(out.Actions, s.Actions)
	for i := range out.Actions {
		a := &out.Actions[i]
		if a.Rate > 0 {
			a.Rate *= intensity
			if a.Rate > 1 {
				a.Rate = 1
			}
		}
		a.DelaySec *= intensity
		a.JitterSec *= intensity
	}
	return out
}

// Scenario is a validated scenario, ready to compile against a deployment.
type Scenario struct {
	Name        string
	Description string
	Actions     []Action
}

// Action is one validated timeline action.
type Action struct {
	Op     Op
	At     time.Duration
	Nodes  NodeSet
	Until  time.Duration // zero = no auto-revert
	Rate   float64
	Delay  time.Duration
	Jitter time.Duration
	On     time.Duration // flap down-phase length
	Off    time.Duration // flap up-phase length
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// Build validates the spec into a Scenario. Validation is deployment-free:
// node ranges and pool sizes are only checkable at compile time.
func (s Spec) Build() (*Scenario, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Actions) == 0 {
		return nil, fmt.Errorf("scenario %q: needs at least one action", s.Name)
	}
	sc := &Scenario{Name: s.Name, Description: s.Description}
	for i, as := range s.Actions {
		act, err := as.build()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: action %d: %w", s.Name, i, err)
		}
		sc.Actions = append(sc.Actions, act)
	}
	return sc, nil
}

func (as ActionSpec) build() (Action, error) {
	op := Op(as.Op)
	known := false
	for _, o := range Ops() {
		if o == op {
			known = true
			break
		}
	}
	if !known {
		return Action{}, fmt.Errorf("unknown op %q (valid: %s)", as.Op, opNames())
	}
	if as.AtSec < 0 {
		return Action{}, fmt.Errorf("%s: atSec must be non-negative, got %g", op, as.AtSec)
	}
	nodes, err := ParseNodeSet(as.Nodes)
	if err != nil {
		return Action{}, fmt.Errorf("%s: %w", op, err)
	}
	act := Action{
		Op:     op,
		At:     secs(as.AtSec),
		Nodes:  nodes,
		Until:  secs(as.UntilSec),
		Rate:   as.Rate,
		Delay:  secs(as.DelaySec),
		Jitter: secs(as.JitterSec),
		On:     secs(as.OnSec),
		Off:    secs(as.OffSec),
	}
	if as.UntilSec != 0 && act.Until <= act.At {
		return Action{}, fmt.Errorf("%s: untilSec (%g) must exceed atSec (%g)", op, as.UntilSec, as.AtSec)
	}

	// Per-op parameter rules. Magnitudes belong to exactly one op so a
	// spec cannot smuggle a misunderstood knob past validation.
	if as.Rate != 0 && op != OpLoss {
		return Action{}, fmt.Errorf("%s: rate only applies to op loss", op)
	}
	if as.DelaySec != 0 && op != OpSlow {
		return Action{}, fmt.Errorf("%s: delaySec only applies to op slow", op)
	}
	if as.JitterSec != 0 && op != OpJitter {
		return Action{}, fmt.Errorf("%s: jitterSec only applies to op jitter", op)
	}
	if (as.PeriodSec != 0 || as.OnSec != 0 || as.OffSec != 0) && op != OpFlap {
		return Action{}, fmt.Errorf("%s: periodSec/onSec/offSec only apply to op flap", op)
	}

	switch op {
	case OpRestart, OpHeal:
		if act.Until != 0 {
			return Action{}, fmt.Errorf("%s: untilSec does not apply", op)
		}
		if nodes.Rolling() {
			return Action{}, fmt.Errorf("%s: rolling node sets do not apply", op)
		}
	case OpSlow:
		if act.Delay <= 0 {
			return Action{}, fmt.Errorf("slow: needs a positive delaySec")
		}
	case OpLoss:
		if as.Rate <= 0 || as.Rate > 1 {
			return Action{}, fmt.Errorf("loss: rate must be in (0, 1], got %g", as.Rate)
		}
	case OpJitter:
		if act.Jitter <= 0 {
			return Action{}, fmt.Errorf("jitter: needs a positive jitterSec")
		}
	case OpFlap:
		if nodes.Rolling() {
			return Action{}, fmt.Errorf("flap: rolling node sets do not apply")
		}
		if act.Until == 0 {
			return Action{}, fmt.Errorf("flap: needs untilSec to bound the flapping window")
		}
		switch {
		case as.OnSec > 0 && as.OffSec > 0:
			// explicit duty cycle
		case as.PeriodSec > 0 && as.OnSec == 0 && as.OffSec == 0:
			act.On = secs(as.PeriodSec / 2)
			act.Off = act.On
		default:
			return Action{}, fmt.Errorf("flap: needs periodSec, or both onSec and offSec")
		}
	}
	return act, nil
}

func opNames() string {
	names := make([]string, 0, len(Ops()))
	for _, op := range Ops() {
		names = append(names, string(op))
	}
	return strings.Join(names, "|")
}

// End returns the last instant the scenario's timeline touches (including
// auto-reverts and rolling staggering is resolved at compile time; End is
// the static upper bound over At and Until).
func (s *Scenario) End() time.Duration {
	var end time.Duration
	for _, act := range s.Actions {
		if act.At > end {
			end = act.At
		}
		if act.Until > end {
			end = act.Until
		}
	}
	return end
}
