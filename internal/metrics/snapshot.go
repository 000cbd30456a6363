package metrics

import (
	"slices"

	"stabl/internal/snapshot"
)

var _ snapshot.Forkable = (*Recorder)(nil)

func copySeries(src map[string][]Sample) map[string][]Sample {
	out := make(map[string][]Sample, len(src))
	for name, samples := range src {
		out[name] = slices.Clone(samples)
	}
	return out
}

func (s *recorderState) clone() *recorderState {
	c := *s
	c.counters = copySeries(s.counters)
	c.gauges = copySeries(s.gauges)
	c.obs = copySeries(s.obs)
	c.events = slices.Clone(s.events)
	c.trace = slices.Clone(s.trace)
	return &c
}

// Snapshot captures every recorded series, event and trace entry.
func (r *Recorder) Snapshot() snapshot.State { return r.recorderState.clone() }

// Restore rewinds the recorder to a state captured by Snapshot.
func (r *Recorder) Restore(state snapshot.State) {
	st, ok := state.(*recorderState)
	if !ok {
		panic("metrics: Recorder.Restore on foreign state")
	}
	r.recorderState = *st.clone()
}

// ReplaceHeadEvents swaps the first n recorded events for evs, keeping the
// rest. core.Experiment.Steer uses it to re-stamp the run-identity
// annotations (written before the checkpoint, for the family representative)
// with the steered member's own, so the recorder ends byte-identical to a
// from-scratch run of that member.
func (r *Recorder) ReplaceHeadEvents(n int, evs []Event) {
	if n > len(r.events) {
		panic("metrics: ReplaceHeadEvents beyond recorded events")
	}
	r.events = append(append([]Event(nil), evs...), r.events[n:]...)
}

// Clone returns an independent deep copy of the recorder. Adaptive campaigns
// hand clones to result callbacks because the live recorder is about to be
// rewound for the next continuation.
func (r *Recorder) Clone() *Recorder {
	return &Recorder{interval: r.interval, recorderState: *r.recorderState.clone()}
}
