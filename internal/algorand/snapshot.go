package algorand

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

func cloneSets[K comparable](m map[K]*nodeSet) map[K]*nodeSet {
	out := make(map[K]*nodeSet, len(m))
	for k, s := range m {
		out[k] = s.clone()
	}
	return out
}

func (s *state) clone() state {
	c := *s
	c.proposals = snapshot.CloneNested(s.proposals)
	c.votes = make(map[int]map[voteKey]*nodeSet, len(s.votes))
	for r, stages := range s.votes {
		c.votes[r] = cloneSets(stages)
	}
	c.nexts = cloneSets(s.nexts)
	c.certSent = maps.Clone(s.certSent)
	c.committed = maps.Clone(s.committed)
	c.evidence = cloneSets(s.evidence)
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
