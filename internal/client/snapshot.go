package client

import (
	"maps"
	"slices"

	"stabl/internal/snapshot"
)

var (
	_ snapshot.Forkable = (*FlowClient)(nil)
	_ snapshot.Forkable = (*VerifiedReader)(nil)
)

// copyInto copies the submission state — value-typed slices throughout —
// reusing dst's storage.
func (s *submitState) copyInto(dst *submitState) {
	window, answered, due, latencies, completeAt := dst.window, dst.answered, dst.due, dst.latencies, dst.completeAt
	*dst = *s
	dst.window = append(window[:0], s.window...)
	dst.answered = append(answered[:0], s.answered...)
	dst.due = append(due[:0], s.due...)
	dst.latencies = append(latencies[:0], s.latencies...)
	dst.completeAt = append(completeAt[:0], s.completeAt...)
}

// Snapshot captures a FlowClient: in-flight transactions, retry bookkeeping
// and the measured latencies.
func (s *submitState) Snapshot() snapshot.State {
	st := new(submitState)
	s.copyInto(st)
	return st
}

// Restore rewinds the client to a state captured by Snapshot.
func (s *submitState) Restore(state snapshot.State) {
	st, ok := state.(*submitState)
	if !ok {
		panic("client: Restore on foreign state")
	}
	st.copyInto(s)
}

// clone copies the reader state. The retry closure retains its own
// pendingRead (already removed from the map and immutable from then on), so
// pending entries are rebuilt as fresh objects.
func (s *readerState) clone() *readerState {
	c := *s
	c.pending = make(map[uint64]*pendingRead, len(s.pending))
	for seq, p := range s.pending {
		cp := *p
		cp.responses = maps.Clone(p.responses)
		c.pending[seq] = &cp
	}
	c.latencies = slices.Clone(s.latencies)
	return &c
}

// Snapshot captures the reader: in-flight read rounds and the verdict
// counters.
func (r *VerifiedReader) Snapshot() snapshot.State { return r.readerState.clone() }

// Restore rewinds the reader to a state captured by Snapshot.
func (r *VerifiedReader) Restore(state snapshot.State) {
	st, ok := state.(*readerState)
	if !ok {
		panic("client: VerifiedReader.Restore on foreign state")
	}
	r.readerState = *st.clone()
}
