package algorand

import (
	"maps"

	"stabl/internal/chain"
	"stabl/internal/snapshot"
)

// checkpoint pairs the BaseNode core's checkpoint with the validator's own.
type checkpoint struct {
	base chain.BaseState
	state
}

func (s *state) clone() state {
	c := *s
	c.proposals = maps.Clone(s.proposals)
	c.votes = s.votes.Clone()
	c.evidence = s.evidence.Clone()
	return c
}

// Snapshot captures the validator: its BaseNode core, round position, the
// adaptive filter timeout and every per-round book.
func (v *validator) Snapshot() snapshot.State {
	return &checkpoint{base: v.base.SnapshotBase(), state: v.state.clone()}
}

// Restore rewinds the validator to a state captured by Snapshot.
func (v *validator) Restore(st snapshot.State) {
	cp, ok := st.(*checkpoint)
	if !ok {
		panic("algorand: validator.Restore on foreign state")
	}
	v.base.RestoreBase(cp.base)
	v.state = cp.state.clone()
}
