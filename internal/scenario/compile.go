package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"stabl/internal/observer"
	"stabl/internal/simnet"
)

// Env is the deployment a scenario compiles against.
type Env struct {
	// Validators / Clients mirror core.Config: validators 0..Clients-1
	// serve clients, the rest form the fault-eligible pool for random and
	// rolling selectors.
	Validators int
	Clients    int
	// RNG returns the named deterministic random stream used to resolve
	// random(k) selectors. core.Run passes the scheduler's derivation, so
	// the same (seed, scenario) pair always picks the same nodes. The
	// derivation is pure: compiling a scenario never perturbs the
	// simulation's other streams.
	RNG func(name string) *rand.Rand
	// Neighbors, when set, returns a validator's gossip-overlay
	// neighborhood; eclipse actions partition each victim from exactly
	// these nodes. Nil (no overlay) falls back to full isolation, so
	// eclipse scenarios stay compilable on mesh deployments.
	Neighbors func(simnet.NodeID) []simnet.NodeID
}

// Phase annotates one compiled timeline step, for metrics timelines and
// human-readable run descriptions.
type Phase struct {
	At    time.Duration
	Label string
}

// Compiled is a scenario lowered onto a concrete deployment — the one fault
// timeline a run carries: the observer script that core.Build hands to the
// fault-injection primary, plus the phase annotations and summary instants
// the harness reports. The zero value is the timeline of a run that injects
// nothing.
type Compiled struct {
	// Script is the primary's action timeline, sorted by instant.
	Script []observer.Action
	// Phases annotate every step, in script order.
	Phases []Phase
	// Affected is the sorted union of every targeted node (core reports a
	// lowered fault plan's targets in signalling order instead).
	Affected []simnet.NodeID
	// FirstDisrupt is the first disruptive instant (the inject marker).
	FirstDisrupt time.Duration
	// LastRevert is the last instant a disruption is reverted — restart,
	// heal, flap window end, degradation rule removal — or zero when the
	// scenario never reverts anything. Recovery is measured from here.
	LastRevert time.Duration
}

// step is one primitive op at one instant, the unit the compiler emits
// before lowering to observer actions.
type step struct {
	at     time.Duration
	op     Op
	nodes  []simnet.NodeID
	rate   float64
	delay  time.Duration
	jitter time.Duration
	revert bool // this step undoes a disruption
}

// Compile lowers the scenario onto a deployment. It expands rolling sets
// into staggered groups, flaps into partition/heal trains and auto-reverts
// into explicit steps, resolves random selectors from env.RNG, and sorts
// the result by (instant, emission order).
func (s *Scenario) Compile(env Env) (*Compiled, error) {
	if env.Validators <= 0 {
		return nil, fmt.Errorf("scenario %q: compile needs a positive validator count", s.Name)
	}
	if env.Clients < 0 || env.Clients > env.Validators {
		return nil, fmt.Errorf("scenario %q: %d clients out of range for %d validators", s.Name, env.Clients, env.Validators)
	}
	if env.RNG == nil {
		return nil, fmt.Errorf("scenario %q: compile needs an RNG derivation", s.Name)
	}

	var steps []step
	for i, act := range s.Actions {
		idx := i
		groups, err := act.Nodes.resolve(env, func() *rand.Rand {
			return env.RNG(fmt.Sprintf("%d/random", idx))
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: action %d (%s): %w", s.Name, i, act.Op, err)
		}
		expanded, err := expandAction(act, groups)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: action %d (%s): %w", s.Name, i, act.Op, err)
		}
		steps = append(steps, expanded...)
	}

	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })

	out := &Compiled{}
	affected := make(map[simnet.NodeID]bool)
	first := time.Duration(-1)
	for _, st := range steps {
		out.Script = append(out.Script, st.lower(env))
		out.Phases = append(out.Phases, Phase{At: st.at, Label: st.label()})
		for _, id := range st.nodes {
			affected[id] = true
		}
		if st.revert {
			if st.at > out.LastRevert {
				out.LastRevert = st.at
			}
		} else if first < 0 || st.at < first {
			first = st.at
		}
	}
	if first > 0 {
		out.FirstDisrupt = first
	}
	for id := range affected {
		out.Affected = append(out.Affected, id)
	}
	sort.Slice(out.Affected, func(i, j int) bool { return out.Affected[i] < out.Affected[j] })
	return out, nil
}

// expandAction turns one validated action and its resolved groups into
// primitive steps. Rolling sets stagger the groups by the set's interval;
// each group's auto-revert happens untilSec-atSec after its own start (or
// one stagger interval later, when untilSec is unset).
func expandAction(act Action, groups [][]simnet.NodeID) ([]step, error) {
	if act.Op == OpFlap {
		return expandFlap(act, groups[0]), nil
	}

	// A zero Until means "never reverts". A set one reverts even when the
	// outage is zero long: a lowered fault plan may heal at its own inject
	// instant, and then still signals inject, then revert, in that order.
	stagger := time.Duration(0)
	reverts := act.Until > 0
	outage := act.Until - act.At
	if act.Nodes.Rolling() {
		stagger = act.Nodes.every
		if !reverts {
			reverts, outage = true, stagger
		}
	}
	var steps []step
	for g, nodes := range groups {
		at := act.At + time.Duration(g)*stagger
		if act.Op == OpEclipse {
			// Each victim is cut from its own overlay neighborhood, so
			// the lowering needs one partition rule — one step — per
			// victim. A single heal closes the whole group.
			for _, v := range nodes {
				steps = append(steps, step{at: at, op: OpEclipse, nodes: []simnet.NodeID{v}})
			}
			if reverts {
				steps = append(steps, revertStep(act.Op, at+outage, nodes))
			}
			continue
		}
		apply := step{at: at, op: act.Op, nodes: nodes,
			rate: act.Rate, delay: act.Delay, jitter: act.Jitter}
		switch act.Op {
		case OpRestart, OpHeal:
			apply.revert = true
			steps = append(steps, apply)
			continue
		}
		steps = append(steps, apply)
		if reverts {
			steps = append(steps, revertStep(act.Op, at+outage, nodes))
		}
	}
	return steps, nil
}

// revertStep builds the step that undoes op for the nodes.
func revertStep(op Op, at time.Duration, nodes []simnet.NodeID) step {
	st := step{at: at, nodes: nodes, revert: true}
	switch op {
	case OpCrash:
		st.op = OpRestart
	case OpPartition, OpEclipse:
		st.op = OpHeal
	case OpSlow:
		st.op = OpSlow // delay zero clears the rule
	case OpLoss:
		st.op = OpLoss
	case OpJitter:
		st.op = OpJitter
	}
	return st
}

// expandFlap emits the partition/heal train of a flapping link: down for
// On, up for Off, repeating inside [At, Until). A final heal at Until (or
// at the natural end of the last down phase, if earlier) always closes the
// window.
func expandFlap(act Action, nodes []simnet.NodeID) []step {
	var steps []step
	for t := act.At; t < act.Until; t += act.On + act.Off {
		steps = append(steps, step{at: t, op: OpPartition, nodes: nodes})
		up := t + act.On
		if up > act.Until {
			up = act.Until
		}
		steps = append(steps, step{at: up, op: OpHeal, nodes: nodes, revert: true})
	}
	return steps
}

// lower translates one step into the observer primary's action form.
func (st step) lower(env Env) observer.Action {
	act := observer.Action{At: st.at}
	switch st.op {
	case OpCrash:
		act.Kill = st.nodes
	case OpRestart:
		act.Reboot = st.nodes
	case OpPartition:
		act.PartitionA = st.nodes
		act.PartitionB = others(env, st.nodes)
	case OpEclipse:
		act.PartitionA = st.nodes // exactly one victim, see expandAction
		if env.Neighbors != nil {
			act.PartitionB = env.Neighbors(st.nodes[0])
		} else {
			act.PartitionB = others(env, st.nodes)
		}
	case OpHeal:
		act.Heal = st.nodes
	case OpSlow:
		act.Slow = st.nodes
		act.SlowBy = st.delay
	case OpLoss:
		act.Loss = st.nodes
		act.LossRate = st.rate
	case OpJitter:
		act.Jitter = st.nodes
		act.JitterBy = st.jitter
	}
	return act
}

// others returns every validator not in nodes, the far side of a partition.
func others(env Env, nodes []simnet.NodeID) []simnet.NodeID {
	in := make(map[simnet.NodeID]bool, len(nodes))
	for _, id := range nodes {
		in[id] = true
	}
	out := make([]simnet.NodeID, 0, env.Validators-len(nodes))
	for i := 0; i < env.Validators; i++ {
		if !in[simnet.NodeID(i)] {
			out = append(out, simnet.NodeID(i))
		}
	}
	return out
}

// label renders the step for phase annotations: "crash n8,n9",
// "loss p=0.05 n5..n9", "heal n3" …
func (st step) label() string {
	var b strings.Builder
	b.WriteString(string(st.op))
	if st.revert {
		switch st.op {
		case OpSlow, OpLoss, OpJitter:
			b.WriteString(" clear")
		}
	}
	switch {
	case st.op == OpSlow && !st.revert:
		fmt.Fprintf(&b, " +%gs", st.delay.Seconds())
	case st.op == OpLoss && !st.revert:
		fmt.Fprintf(&b, " p=%g", st.rate)
	case st.op == OpJitter && !st.revert:
		fmt.Fprintf(&b, " ±%gs", st.jitter.Seconds())
	}
	b.WriteString(" ")
	b.WriteString(nodeList(st.nodes))
	return b.String()
}

// nodeList renders node ids compactly, collapsing runs ("n5..n9").
func nodeList(nodes []simnet.NodeID) string {
	if len(nodes) == 0 {
		return "-"
	}
	var b strings.Builder
	for i := 0; i < len(nodes); {
		j := i
		for j+1 < len(nodes) && nodes[j+1] == nodes[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteString(",")
		}
		if j > i+1 {
			fmt.Fprintf(&b, "%v..%v", nodes[i], nodes[j])
		} else if j == i+1 {
			fmt.Fprintf(&b, "%v,%v", nodes[i], nodes[j])
		} else {
			fmt.Fprintf(&b, "%v", nodes[i])
		}
		i = j + 1
	}
	return b.String()
}
