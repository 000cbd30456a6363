// Package snapshot defines the checkpoint/restore contract that makes STABL
// runs forkable: every stateful simulation component implements Forkable —
// a chain.Validator by its type — and core.Build's stages register each one
// in the experiment's Set as they create it, so Experiment.Fork captures the
// whole experiment at a virtual instant. Checkpoints hold the sequential
// kernel's layout; a parallel experiment does not fork.
//
// # Restore-in-place semantics
//
// Snapshots are value copies, not serializations. The event scheduler queues
// closures, which cannot be marshalled; instead, a snapshot deep-copies every
// piece of mutable state while leaving the object graph itself alone, and
// Restore writes that state back into the *same* objects. Continuations
// therefore run sequentially on one live experiment: fork, run continuation
// A to completion, restore, run continuation B. The queued closures restored
// with the scheduler heap keep pointing at the same components, which the
// restore has rewound to their checkpoint-time state.
//
// # State ownership rules for implementors
//
//   - Every field a component mutates after construction lives in one
//     embedded, value-typed state struct (`state`, or `<role>State` where a
//     package holds several Forkables), declared once. A checkpoint is that
//     struct copied by assignment plus one clone (or copyInto, where the live
//     slice's capacity is worth keeping) that names only the reference-typed
//     fields — maps and slices that are appended to or written through — and
//     Snapshot and Restore share it. Scalars, timers and pointers to
//     identity-preserved objects travel with the assignment; immutable
//     payloads (transactions, blocks, proposal messages) stay shared. A
//     counter kept in a local captured by a scheduled closure breaks the
//     rule invisibly; the snapshot-fields analyzer reports a mutated field
//     declared beside the state.
//   - Objects captured by scheduled closures (round states, protocol
//     instances, connection pairs, tickers, simnet's pooled flights — every
//     message in flight is one) restore *through the same pointer*: the
//     checkpoint holds (pointer, copy of the pointee's state) and Restore
//     writes the copy back through the pointer. Replacing such an object
//     would strand the queued closures on the stale one. Registries of them
//     (RNG streams, tickers, the flight pool) grow deterministically, so
//     Restore truncates to the checkpoint length.
package snapshot

import "slices"

// State is one component's opaque checkpoint. Each Forkable returns its own
// private state type; callers only carry it back to the same component's
// Restore.
type State any

// Forkable is implemented by every simulation component that supports
// checkpoint/restore. Snapshot captures all mutable state by value; Restore
// writes a previously captured state back in place. Restore must accept any
// State produced by the same component's Snapshot (components panic on
// foreign states — mixing them up is a harness bug, not an input error).
type Forkable interface {
	Snapshot() State
	Restore(State)
}

// Set composes Forkables into one Forkable: Snapshot captures every part in
// registration order and Restore rewinds them all. core.Build fills one Set
// with the scheduler, network, chain nodes, clients, observers and recorders.
type Set struct {
	parts []Forkable
}

// Add registers parts; order is preserved and only determines snapshot
// iteration, not correctness (parts restore independently).
func (s *Set) Add(parts ...Forkable) {
	s.parts = append(s.parts, parts...)
}

// Grow makes room for n more parts, so a caller that knows how many it will
// register adds them without regrowing the list.
func (s *Set) Grow(n int) { s.parts = slices.Grow(s.parts, n) }

// Len reports how many parts are registered.
func (s *Set) Len() int { return len(s.parts) }

type setState []State

// Snapshot captures every registered part.
func (s *Set) Snapshot() State {
	states := make(setState, len(s.parts))
	for i, p := range s.parts {
		states[i] = p.Snapshot()
	}
	return states
}

// Restore rewinds every registered part. It panics when st did not come from
// this Set (or the Set grew since — forks must not register parts after the
// checkpoint).
func (s *Set) Restore(st State) {
	states, ok := st.(setState)
	if !ok {
		panic("snapshot: Set.Restore on foreign state")
	}
	if len(states) != len(s.parts) {
		panic("snapshot: Set changed size since Snapshot")
	}
	for i, p := range s.parts {
		p.Restore(states[i])
	}
}
