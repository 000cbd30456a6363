package workload

import (
	"slices"

	"stabl/internal/snapshot"
)

var _ snapshot.Forkable = (*Flow)(nil)

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
