package sim

import (
	"slices"

	"stabl/internal/snapshot"
)

// countingSource is a SplitMix64 PRNG (Steele, Lea & Flood, OOPSLA 2014)
// with a draw counter. Its whole state is one 64-bit word advanced by a
// fixed odd gamma per draw, so a stream is three words and a checkpoint
// copies it by value. That matters twice — checkpoints reposition thousands
// of streams per Restore, and large deployments derive three degradation
// streams per node (a stdlib lagged-Fibonacci source would cost ~5 KB each,
// ~150 MB at 10,240 nodes).
type countingSource struct {
	seed  int64
	state uint64
	draws uint64
}

// splitmixGamma is the Weyl-sequence increment (the golden ratio in 64 bits,
// forced odd), the constant the SplitMix64 reference uses.
const splitmixGamma = 0x9E3779B97F4A7C15

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed, state: uint64(seed)}
}

func (c *countingSource) Uint64() uint64 {
	c.state += splitmixGamma
	c.draws++
	z := c.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (c *countingSource) Int63() int64 {
	return int64(c.Uint64() >> 1)
}

func (c *countingSource) Seed(seed int64) {
	c.seed = seed
	c.state = uint64(seed)
	c.draws = 0
}

// copyInto makes dst an independent copy of s, reusing dst's heap, chunk
// and arena storage when large enough. Entries are value types; the fn
// pointers inside the copied slots are the closures queued at checkpoint
// time, which restore-in-place keeps valid (see package snapshot). A copied
// bucket keeps its chunk order, and no free chunk is copied.
func (s *queueState) copyInto(dst *queueState) {
	heap, slots, spare := dst.heap, dst.slots, dst.spare
	for _, b := range dst.buckets {
		for c := b.top; c != nil; {
			next := c.next
			c.next, spare = spare, c
			c = next
		}
	}
	*dst = *s
	dst.heap = append(heap[:0], s.heap...)
	dst.slots = append(slots[:0], s.slots...)
	dst.spare = spare
	for i := range dst.buckets {
		link := &dst.buckets[i].top
		for c := s.buckets[i].top; c != nil; c = c.next {
			d := dst.newChunk(nil)
			d.e = append(d.e, c.e...)
			*link = d
			link = &d.next
		}
	}
}

func (s *schedState) clone() schedState {
	c := *s
	c.laneSeq = slices.Clone(s.laneSeq)
	c.sources = slices.Clone(s.sources)
	c.tickers = slices.Clone(s.tickers)
	return c
}

// schedCheck is the Scheduler's checkpoint: its own state, the root queue's,
// and the contents behind the two registries (parallel to them). Entries
// registered after the checkpoint belong to objects the restore abandons, so
// restoring the registry slices truncates exactly. Checkpoints capture the
// sequential kernel only (one queue); the forking API falls back to
// sequential mode before snapshotting.
type schedCheck struct {
	schedState
	queue   queueState
	sources []countingSource
	tickers []tickerState
}

// Snapshot captures the scheduler: clock, event queue, slot arena, key
// counters and the RNG/ticker registries. A checkpoint of a steady-state
// experiment costs a few slice copies plus two small registry walks.
func (s *Scheduler) Snapshot() snapshot.State {
	if s.par != nil {
		panic("sim: Snapshot requires the sequential kernel (see DisableParallel)")
	}
	st := &schedCheck{
		schedState: s.schedState.clone(),
		sources:    make([]countingSource, len(s.sources)),
		tickers:    make([]tickerState, len(s.tickers)),
	}
	s.qs[0].queueState.copyInto(&st.queue)
	for i, src := range s.sources {
		st.sources[i] = *src
	}
	for i, t := range s.tickers {
		st.tickers[i] = t.tickerState
	}
	return st
}

// Restore rewinds the scheduler to a state captured by Snapshot. Queue and
// arena contents are written back in place (slots allocated since the
// checkpoint are dropped), every registered RNG stream is repositioned at
// its checkpoint draw count, and tickers recover their checkpoint timers.
func (s *Scheduler) Restore(state snapshot.State) {
	st, ok := state.(*schedCheck)
	if !ok {
		panic("sim: Scheduler.Restore on foreign state")
	}
	if s.par != nil {
		panic("sim: Restore requires the sequential kernel")
	}
	s.schedState = st.schedState.clone()
	st.queue.copyInto(&s.qs[0].queueState)
	for i, src := range s.sources {
		*src = st.sources[i]
	}
	for i, t := range s.tickers {
		t.tickerState = st.tickers[i]
	}
}
