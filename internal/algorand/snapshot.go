package algorand

import (
	"time"

	"stabl/internal/chain"
	"stabl/internal/sim"
	"stabl/internal/simnet"
	"stabl/internal/snapshot"
)

// validatorState is an Algorand validator checkpoint. Queued round closures
// capture only round numbers and the validator pointer, so plain deep copies
// of the vote books suffice; proposal messages are immutable once buffered
// and are shared by pointer.
type validatorState struct {
	base      chain.BaseState
	ctx       *simnet.Context
	round     int
	filterTO  time.Duration
	timer     sim.Timer
	proposals map[int]map[simnet.NodeID]*proposalMsg
	votes     map[int]map[voteKey]*nodeSet
	nexts     map[int]*nodeSet
	certSent  map[int]bool
	committed map[int]bool
	evidence  map[int]*nodeSet
	puller    *sim.Ticker
	resets    uint64
	lastReset time.Duration
	everReset bool
	rngPull   interface{ Intn(int) int }
}

var _ snapshot.Forkable = (*validator)(nil)

// Snapshot captures the validator: its BaseNode core, round position, the
// adaptive filter timeout and every per-round book.
func (v *validator) Snapshot() snapshot.State {
	st := &validatorState{
		base:      v.base.SnapshotBase(),
		ctx:       v.ctx,
		round:     v.round,
		filterTO:  v.filterTO,
		timer:     v.roundTimer,
		proposals: make(map[int]map[simnet.NodeID]*proposalMsg, len(v.proposals)),
		votes:     make(map[int]map[voteKey]*nodeSet, len(v.votes)),
		nexts:     make(map[int]*nodeSet, len(v.nexts)),
		certSent:  make(map[int]bool, len(v.certSent)),
		committed: make(map[int]bool, len(v.committed)),
		evidence:  make(map[int]*nodeSet, len(v.evidence)),
		puller:    v.puller,
		resets:    v.resets,
		lastReset: v.lastReset,
		everReset: v.everReset,
		rngPull:   v.rngPull,
	}
	for r, props := range v.proposals {
		m := make(map[simnet.NodeID]*proposalMsg, len(props))
		for p, prop := range props {
			m[p] = prop
		}
		st.proposals[r] = m
	}
	for r, stages := range v.votes {
		sm := make(map[voteKey]*nodeSet, len(stages))
		for key, voters := range stages {
			sm[key] = voters.clone()
		}
		st.votes[r] = sm
	}
	for r, voters := range v.nexts {
		st.nexts[r] = voters.clone()
	}
	for r, sent := range v.certSent {
		st.certSent[r] = sent
	}
	for r, done := range v.committed {
		st.committed[r] = done
	}
	for r, senders := range v.evidence {
		st.evidence[r] = senders.clone()
	}
	return st
}

// Restore rewinds the validator to a state captured by Snapshot.
func (v *validator) Restore(state snapshot.State) {
	st, ok := state.(*validatorState)
	if !ok {
		panic("algorand: validator.Restore on foreign state")
	}
	v.base.RestoreBase(st.base)
	v.ctx = st.ctx
	v.round = st.round
	v.filterTO = st.filterTO
	v.roundTimer = st.timer
	v.puller = st.puller
	v.resets = st.resets
	v.lastReset = st.lastReset
	v.everReset = st.everReset
	v.rngPull = st.rngPull
	v.proposals = make(map[int]map[simnet.NodeID]*proposalMsg, len(st.proposals))
	for r, props := range st.proposals {
		m := make(map[simnet.NodeID]*proposalMsg, len(props))
		for p, prop := range props {
			m[p] = prop
		}
		v.proposals[r] = m
	}
	v.votes = make(map[int]map[voteKey]*nodeSet, len(st.votes))
	for r, stages := range st.votes {
		sm := make(map[voteKey]*nodeSet, len(stages))
		for key, voters := range stages {
			sm[key] = voters.clone()
		}
		v.votes[r] = sm
	}
	v.nexts = make(map[int]*nodeSet, len(st.nexts))
	for r, voters := range st.nexts {
		v.nexts[r] = voters.clone()
	}
	v.certSent = make(map[int]bool, len(st.certSent))
	for r, sent := range st.certSent {
		v.certSent[r] = sent
	}
	v.committed = make(map[int]bool, len(st.committed))
	for r, done := range st.committed {
		v.committed[r] = done
	}
	v.evidence = make(map[int]*nodeSet, len(st.evidence))
	for r, senders := range st.evidence {
		v.evidence[r] = senders.clone()
	}
}
