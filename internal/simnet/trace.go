package simnet

import (
	"fmt"
	"time"
)

// TraceKind classifies a network lifecycle event.
type TraceKind int

// Trace event kinds.
const (
	// TraceNodeStart is a node boot or reboot.
	TraceNodeStart TraceKind = iota + 1
	// TraceNodeHalt is a node crash.
	TraceNodeHalt
	// TracePartition is a packet-drop rule installation.
	TracePartition
	// TraceHeal is a rule removal.
	TraceHeal
	// TraceDelay is a netem delay change.
	TraceDelay
	// TraceConnDown is a connection teardown.
	TraceConnDown
	// TraceConnUp is a connection (re-)establishment.
	TraceConnUp
	// TraceLoss is a netem loss-rate change.
	TraceLoss
	// TraceJitter is a netem jitter-bound change.
	TraceJitter
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceNodeStart:
		return "node-start"
	case TraceNodeHalt:
		return "node-halt"
	case TracePartition:
		return "partition"
	case TraceHeal:
		return "heal"
	case TraceDelay:
		return "delay"
	case TraceConnDown:
		return "conn-down"
	case TraceConnUp:
		return "conn-up"
	case TraceLoss:
		return "loss"
	case TraceJitter:
		return "jitter"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one lifecycle transition: exactly the class of events that
// decides STABL experiments (who died when, which links were cut, when the
// reconnection timers fired).
type TraceEvent struct {
	At     time.Duration
	Kind   TraceKind
	Node   NodeID
	Peer   NodeID // conn events; Node otherwise
	Detail string
}

// Tracer receives lifecycle events as they happen.
type Tracer func(TraceEvent)

// SetTracer installs a lifecycle tracer (nil disables tracing).
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

func (n *Network) trace(ev TraceEvent) {
	if n.tracer != nil {
		ev.At = n.sched.Now()
		n.tracer(ev)
	}
}
