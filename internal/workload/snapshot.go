package workload

import (
	"maps"
	"slices"

	"stabl/internal/snapshot"
)

var (
	_ snapshot.Forkable = (*Generator)(nil)
	_ snapshot.Forkable = (*Flow)(nil)
)

func (s *genState) clone() *genState {
	c := *s
	c.nonces = maps.Clone(s.nonces)
	return &c
}

// Snapshot captures the generator's nonce chains and sequence counter.
func (g *Generator) Snapshot() snapshot.State { return g.genState.clone() }

// Restore rewinds the generator to a state captured by Snapshot.
func (g *Generator) Restore(state snapshot.State) {
	st, ok := state.(*genState)
	if !ok {
		panic("workload: Generator.Restore on foreign state")
	}
	g.genState = *st.clone()
}

func (s *flowState) clone() *flowState {
	c := *s
	c.nonces = slices.Clone(s.nonces)
	return &c
}

// Snapshot captures the flow's nonce slice and sequence counter.
func (f *Flow) Snapshot() snapshot.State { return f.flowState.clone() }

// Restore rewinds the flow to a state captured by Snapshot.
func (f *Flow) Restore(state snapshot.State) {
	st, ok := state.(*flowState)
	if !ok {
		panic("workload: Flow.Restore on foreign state")
	}
	f.flowState = *st.clone()
}
