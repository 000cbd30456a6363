// Package observer implements STABL's fault-injection architecture (paper
// Fig 2): a primary coordinator broadcasts signals over the network to
// observer processes co-located with every blockchain node; the observers
// kill or reboot the local blockchain process and install or remove the
// local packet-drop rules that create partitions.
package observer

import (
	"time"

	"stabl/internal/simnet"
)

// Signals sent from the primary to observers. They travel over the
// simulated network like any other message.
type (
	// KillSignal tells the observer to kill its blockchain process.
	KillSignal struct{}
	// RebootSignal tells the observer to restart its blockchain process.
	RebootSignal struct{}
	// PartitionSignal tells the observer to drop packets between its
	// node and Other (netfilter rules in the paper).
	PartitionSignal struct {
		Other []simnet.NodeID
	}
	// HealSignal removes the observer's packet-drop rules.
	HealSignal struct{}
	// SlowSignal installs a tc-netem delay rule on the node's interface
	// (delay 0 removes it).
	SlowSignal struct {
		Delay time.Duration
	}
	// LossSignal installs a tc-netem probabilistic-loss rule on the
	// node's interface (rate 0 removes it).
	LossSignal struct {
		Rate float64
	}
	// JitterSignal installs a tc-netem delay-variation rule on the node's
	// interface (bound 0 removes it).
	JitterSignal struct {
		Bound time.Duration
	}
	// AckSignal reports an executed action back to the primary.
	AckSignal struct {
		Action string
	}
)

// Observer runs beside one blockchain node. It never crashes itself: fault
// injection must keep working while the observed process is down.
type Observer struct {
	target simnet.NodeID
	net    *simnet.Network
	observerState
}

// observerState is what an Observer mutates after construction, and its
// checkpoint: the installed-rule handle and the action log.
type observerState struct {
	ctx    *simnet.Context
	rule   int
	hasRul bool
	log    []string
}

var _ simnet.Handler = (*Observer)(nil)

// New creates an observer controlling the given blockchain node.
func New(target simnet.NodeID, net *simnet.Network) *Observer {
	return &Observer{target: target, net: net}
}

// Start implements simnet.Handler.
func (o *Observer) Start(ctx *simnet.Context) { o.ctx = ctx }

// Stop implements simnet.Handler.
func (o *Observer) Stop() {}

// Deliver implements simnet.Handler.
func (o *Observer) Deliver(from simnet.NodeID, payload any) {
	switch sig := payload.(type) {
	case KillSignal:
		o.net.Halt(o.target)
		o.log = append(o.log, "kill")
		o.ctx.Send(from, AckSignal{Action: "kill"})
	case RebootSignal:
		o.net.Restart(o.target)
		o.log = append(o.log, "reboot")
		o.ctx.Send(from, AckSignal{Action: "reboot"})
	case PartitionSignal:
		if o.hasRul {
			o.net.Heal(o.rule)
		}
		o.rule = o.net.Partition([]simnet.NodeID{o.target}, sig.Other)
		o.hasRul = true
		o.log = append(o.log, "partition")
		o.ctx.Send(from, AckSignal{Action: "partition"})
	case HealSignal:
		if o.hasRul {
			o.net.Heal(o.rule)
			o.hasRul = false
		}
		o.log = append(o.log, "heal")
		o.ctx.Send(from, AckSignal{Action: "heal"})
	case SlowSignal:
		o.net.SetExtraDelay(o.target, sig.Delay)
		o.log = append(o.log, "slow")
		o.ctx.Send(from, AckSignal{Action: "slow"})
	case LossSignal:
		o.net.SetLoss(o.target, sig.Rate)
		o.log = append(o.log, "loss")
		o.ctx.Send(from, AckSignal{Action: "loss"})
	case JitterSignal:
		o.net.SetJitter(o.target, sig.Bound)
		o.log = append(o.log, "jitter")
		o.ctx.Send(from, AckSignal{Action: "jitter"})
	}
}

// Log returns the actions the observer executed, in order.
func (o *Observer) Log() []string { return append([]string(nil), o.log...) }

// Action is one step of a fault script, executed by the primary at a given
// virtual time.
type Action struct {
	// At is when the primary emits the signals.
	At time.Duration
	// Kill and Reboot list blockchain nodes whose observers receive the
	// corresponding signal.
	Kill   []simnet.NodeID
	Reboot []simnet.NodeID
	// PartitionA/PartitionB isolate two groups from each other: every
	// observer of a node in PartitionA receives a PartitionSignal
	// against PartitionB.
	PartitionA []simnet.NodeID
	PartitionB []simnet.NodeID
	// Heal lists nodes whose observers must drop their packet rules.
	Heal []simnet.NodeID
	// Slow lists nodes whose observers install a SlowBy delay rule
	// (SlowBy 0 removes it).
	Slow   []simnet.NodeID
	SlowBy time.Duration
	// Loss lists nodes whose observers install a LossRate packet-loss
	// rule (LossRate 0 removes it); Jitter lists nodes whose observers
	// install a JitterBy delay-variation rule (JitterBy 0 removes it).
	Loss     []simnet.NodeID
	LossRate float64
	Jitter   []simnet.NodeID
	JitterBy time.Duration
}

// Primary is the coordinator machine: it owns the fault script and signals
// observers at the scheduled instants.
type Primary struct {
	observers map[simnet.NodeID]simnet.NodeID // blockchain node -> observer id
	primaryState
}

// primaryState is what a Primary mutates after construction, and its
// checkpoint. The script is part of it so a restored run can be re-pointed
// at a sibling script (see SetScript) without the previous continuation's
// replacement leaking through.
type primaryState struct {
	script   []Action
	ctx      *simnet.Context
	acks     int
	executed int
}

var _ simnet.Handler = (*Primary)(nil)

// NewPrimary creates the coordinator. observers maps each blockchain node to
// the network id of its observer process.
func NewPrimary(script []Action, observers map[simnet.NodeID]simnet.NodeID) *Primary {
	return &Primary{observers: observers, primaryState: primaryState{script: script}}
}

// Start implements simnet.Handler; it schedules every scripted action. Each
// scheduled event captures its index and reads the script at fire time, so a
// forked continuation steered onto a sibling schedule via SetScript executes
// the replacement actions.
func (p *Primary) Start(ctx *simnet.Context) {
	p.ctx = ctx
	for i := range p.script {
		i := i
		delay := p.script[i].At - ctx.Now()
		ctx.After(delay, func() { p.execute(p.script[i]) })
	}
}

// Stop implements simnet.Handler.
func (p *Primary) Stop() {}

// Deliver implements simnet.Handler.
func (p *Primary) Deliver(_ simnet.NodeID, payload any) {
	if _, ok := payload.(AckSignal); ok {
		p.acks++
	}
}

// Acks returns how many observer acknowledgements arrived.
func (p *Primary) Acks() int { return p.acks }

// Executed returns how many script actions have fired.
func (p *Primary) Executed() int { return p.executed }

func (p *Primary) execute(act Action) {
	p.executed++
	for _, node := range act.Kill {
		p.signal(node, KillSignal{})
	}
	for _, node := range act.Reboot {
		p.signal(node, RebootSignal{})
	}
	for _, node := range act.PartitionA {
		p.signal(node, PartitionSignal{Other: act.PartitionB})
	}
	for _, node := range act.Heal {
		p.signal(node, HealSignal{})
	}
	for _, node := range act.Slow {
		p.signal(node, SlowSignal{Delay: act.SlowBy})
	}
	for _, node := range act.Loss {
		p.signal(node, LossSignal{Rate: act.LossRate})
	}
	for _, node := range act.Jitter {
		p.signal(node, JitterSignal{Bound: act.JitterBy})
	}
}

func (p *Primary) signal(node simnet.NodeID, sig any) {
	obs, ok := p.observers[node]
	if !ok {
		return
	}
	p.ctx.Send(obs, sig)
}
