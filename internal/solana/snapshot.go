package solana

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
	c.blocks = maps.Clone(s.blocks)
	c.eahByEpoch = maps.Clone(s.eahByEpoch)
	c.votes = s.votes.Clone()
	c.rooted = maps.Clone(s.rooted)
	return c
}

// Snapshot captures the validator: its BaseNode core, per-slot banks and
// votes, the EAH ledger and the panic latch.
func (v *validator) Snapshot() snapshot.State {
	return &checkpoint{base: v.base.SnapshotBase(), state: v.state.clone()}
}

// Restore rewinds the validator to a state captured by Snapshot.
func (v *validator) Restore(st snapshot.State) {
	cp, ok := st.(*checkpoint)
	if !ok {
		panic("solana: validator.Restore on foreign state")
	}
	v.base.RestoreBase(cp.base)
	v.state = cp.state.clone()
}
