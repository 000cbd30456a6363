package aptos

import (
	"maps"

	"stabl/internal/chain"
	"stabl/internal/snapshot"
)

var _ snapshot.Forkable = (*validator)(nil)

// checkpoint pairs the BaseNode core's checkpoint with the validator's own.
type checkpoint struct {
	base chain.BaseState
	state
}

func (s *state) clone() state {
	c := *s
	c.votes = snapshot.CloneNested(s.votes)
	c.timeouts = snapshot.CloneNested(s.timeouts)
	c.proposed = maps.Clone(s.proposed)
	c.committed = maps.Clone(s.committed)
	c.failCount = maps.Clone(s.failCount)
	c.excludedAt = maps.Clone(s.excludedAt)
	return c
}

// Snapshot captures the validator: its BaseNode core, pacemaker position and
// timeout growth, the vote and timeout books, and leader reputation.
func (v *validator) Snapshot() snapshot.State {
	return &checkpoint{base: v.base.SnapshotBase(), state: v.state.clone()}
}

// Restore rewinds the validator to a state captured by Snapshot.
func (v *validator) Restore(st snapshot.State) {
	cp, ok := st.(*checkpoint)
	if !ok {
		panic("aptos: validator.Restore on foreign state")
	}
	v.base.RestoreBase(cp.base)
	v.state = cp.state.clone()
}
