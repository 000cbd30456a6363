package avalanche

import (
	"maps"
	"slices"

	"stabl/internal/chain"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
)

// checkpoint pairs the BaseNode core's checkpoint with the validator's own
// and the contents behind its two identity-preserved pointers.
type checkpoint struct {
	base chain.BaseState
	state
	cpu  simnet.TokenBucket // *state.cpu, when set
	inst instance           // *state.inst, when set
}

func (s *state) clone() state {
	c := *s
	c.proposals = maps.Clone(s.proposals)
	c.announceQ = slices.Clone(s.announceQ)
	return c
}

func (i *instance) clone() instance {
	c := *i
	c.flips = maps.Clone(i.flips)
	return c
}

// Snapshot captures the validator: its BaseNode core, the throttler state,
// the Snowball instance, buffered proposals and the announce queue.
func (v *validator) Snapshot() snapshot.State {
	cp := &checkpoint{base: v.base.SnapshotBase(), state: v.state.clone()}
	if v.cpu != nil {
		cp.cpu = *v.cpu
	}
	if v.inst != nil {
		cp.inst = v.inst.clone()
	}
	return cp
}

// Restore rewinds the validator to a state captured by Snapshot.
func (v *validator) Restore(st snapshot.State) {
	cp, ok := st.(*checkpoint)
	if !ok {
		panic("avalanche: validator.Restore on foreign state")
	}
	v.base.RestoreBase(cp.base)
	v.state = cp.state.clone()
	if v.cpu != nil {
		*v.cpu = cp.cpu
	}
	if v.inst != nil {
		*v.inst = cp.inst.clone()
	}
}
