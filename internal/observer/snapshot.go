package observer

import (
	"slices"

	"stabl/internal/snapshot"
)

var (
	_ snapshot.Forkable = (*Observer)(nil)
	_ snapshot.Forkable = (*Primary)(nil)
)

func (s *observerState) clone() *observerState {
	c := *s
	c.log = slices.Clone(s.log)
	return &c
}

// Snapshot captures the observer's installed-rule handle and action log.
func (o *Observer) Snapshot() snapshot.State { return o.observerState.clone() }

// Restore rewinds the observer to a state captured by Snapshot.
func (o *Observer) Restore(state snapshot.State) {
	st, ok := state.(*observerState)
	if !ok {
		panic("observer: Observer.Restore on foreign state")
	}
	o.observerState = *st.clone()
}

func (s *primaryState) clone() *primaryState {
	c := *s
	c.script = slices.Clone(s.script)
	return &c
}

// Snapshot captures the primary: its script contents and progress counters.
func (p *Primary) Snapshot() snapshot.State { return p.primaryState.clone() }

// Restore rewinds the primary to a state captured by Snapshot.
func (p *Primary) Restore(state snapshot.State) {
	st, ok := state.(*primaryState)
	if !ok {
		panic("observer: Primary.Restore on foreign state")
	}
	p.primaryState = *st.clone()
}

// SetScript replaces the primary's script contents in place. The scheduled
// signal events read the script at fire time, so actions not yet executed
// take the new contents — this is how a forked continuation is steered onto
// a sibling fault schedule. The replacement must be shape-compatible with
// the original: same number of actions at the same instants (only
// magnitudes and node sets may differ), so a forked run schedules exactly
// the events a from-scratch run of the new script would.
func (p *Primary) SetScript(script []Action) {
	if len(script) != len(p.script) {
		panic("observer: SetScript with different action count")
	}
	for i := range script {
		if script[i].At != p.script[i].At {
			panic("observer: SetScript with shifted action instants")
		}
	}
	copy(p.script, script)
}
