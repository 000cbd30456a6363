package redbelly

import (
	"maps"

	"stabl/internal/chain"
	"stabl/internal/snapshot"
)

var _ snapshot.Forkable = (*validator)(nil)

// checkpoint pairs the BaseNode core's checkpoint with the validator's own
// and the contents of every live round, keyed like nodeState.states.
type checkpoint struct {
	base chain.BaseState
	nodeState
	rounds map[int]roundState
}

func (s *nodeState) clone() nodeState {
	c := *s
	c.states = maps.Clone(s.states)
	return c
}

// clone copies one round's books. Transaction and estimate slices are
// immutable once stored and stay shared.
func (rs *roundState) clone() roundState {
	c := *rs
	c.proposals = maps.Clone(rs.proposals)
	c.votes = snapshot.CloneNested(rs.votes)
	c.ests = maps.Clone(rs.ests)
	c.myVote = maps.Clone(rs.myVote)
	c.coordSent = maps.Clone(rs.coordSent)
	return c
}

// Snapshot captures the validator: its BaseNode core, round position and
// every live round's consensus state. Which ticker and RNG stream are current
// is recorded by pointer; their internal state lives in the scheduler.
func (v *validator) Snapshot() snapshot.State {
	cp := &checkpoint{
		base:      v.base.SnapshotBase(),
		nodeState: v.nodeState.clone(),
		rounds:    make(map[int]roundState, len(v.states)),
	}
	for r, rs := range v.states {
		cp.rounds[r] = rs.clone()
	}
	return cp
}

// Restore rewinds the validator to a state captured by Snapshot. Round states
// created since the checkpoint are abandoned; the captured ones are restored
// through their pointers so closures queued at checkpoint time still see them.
func (v *validator) Restore(st snapshot.State) {
	cp, ok := st.(*checkpoint)
	if !ok {
		panic("redbelly: validator.Restore on foreign state")
	}
	v.base.RestoreBase(cp.base)
	v.nodeState = cp.nodeState.clone()
	for r, rs := range cp.rounds {
		*v.states[r] = rs.clone()
	}
}
