// Package sim provides a deterministic discrete-event simulation kernel.
//
// All STABL experiments run in virtual time: events (an Event, or a plain
// function) are scheduled at a virtual instant and executed in a
// deterministic total order. A 400-second blockchain experiment therefore
// completes in milliseconds of wall-clock time and is reproducible
// bit-for-bit from its seed.
//
// Events are ordered by a four-part key (at, lane, seq, sub): the virtual
// instant, the lane (node) that scheduled the event, a per-lane sequence
// number, and a sub-sequence used for same-instant re-schedules from inside
// a running event. The key is assigned at scheduling time and never depends
// on global interleaving, which is what lets the conservative parallel mode
// (see parallel.go) execute partitions of the node set concurrently and
// still merge their event streams into exactly the sequential order.
//
// The event queue is built for throughput: a monotone radix queue over
// value-typed entries (see queueState), where scheduling past the current
// instant is an O(1) append, with events parked in a free-listed slot arena
// so that At/After/Step allocate nothing in steady state. A slot holds an
// Event: a pooled object such as a network flight queues itself with no
// closure, and a func() passed to At converts into one without allocating.
// Timer handles refer to (queue, slot, generation) triples, which keeps
// stale handles safe after a slot is recycled. Cancellation is lazy — a
// stopped event's entry stays queued until it surfaces.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"
)

// Scheduler is a discrete-event scheduler with a virtual clock.
//
// The zero value is not usable; construct one with New. A sequential
// Scheduler is not safe for concurrent use. In parallel mode (EnableParallel)
// the scheduler itself orchestrates the only permitted concurrency: each
// partition queue is touched by exactly one goroutine per lookahead window.
type Scheduler struct {
	// qs[0] is the root queue: the sequential event loop, and in parallel
	// mode the global lane for cross-cutting actors (observers, the
	// connection manager, gauge samplers). qs[1..workers] are partition
	// queues owned by one worker each during a window.
	qs []*queue
	//stabl:nodet snapshot-fields -- parallel-mode only, and a parallel scheduler never forks
	laneQueue []int32 // lane -> queue index; nil (sequential) routes all lanes to qs[0]

	seed int64

	// regMu guards the stream/ticker registries, the only scheduler state
	// that partition events may touch concurrently (a restarted node
	// re-deriving its RNG streams).
	regMu sync.Mutex
	// streams is the block RNGFromSeed carves new streams from; Restore
	// drops it, so the next stream opens a block and a registry entry.
	//stabl:nodet snapshot-fields -- allocation cursor that only moves forward: the registered sources are the state, and no slot is handed out twice
	streams []stream

	par *parRun // nil in sequential mode
	schedState
}

// schedState is what the Scheduler itself mutates after construction (each
// queue carries its own queueState), and that part of its checkpoint.
type schedState struct {
	laneSeq []uint64 // per-lane key counters, indexed lane+1 (lane -1 is the root lane)
	halted  bool

	// Checkpoint registries (see Snapshot): every RNG stream and ticker
	// ever issued, in creation order. Creation is deterministic, so a
	// forked continuation and the from-scratch run it mirrors build
	// identical registries. The objects are identity-preserved; sources
	// holds each block of streams, the last one being carved.
	sources []streamBlock
	tickers []*Ticker
}

// queue is one event sub-queue: a radix queue plus its slot arena and
// clock. Sequential mode uses exactly one; parallel mode adds one per
// worker. Each queue also records the key of the event it is currently
// executing, which keys same-instant re-schedules and monitor records.
type queue struct {
	queueState

	// Execution context: set while an event runs, consumed by the
	// same-instant re-schedule rule in schedule() and by ExecKey. Not
	// state: checkpoints are taken between events.
	executing bool
	curLane   int32
	curSeq    uint64
	curSub    uint32
}

// queueState is what outlives an event in a queue, and its checkpoint.
//
// The entries form a monotone radix queue around a floor instant. heap holds
// every entry at or before floor, ordered by the full key; every later entry
// sits unordered in buckets[b], where b is the highest bit in which its at
// differs from floor. So heap[0], when there is one, is the least entry of
// the queue, and a push that is not at the floor is an append. When the heap
// runs dry, refill moves the floor to the least at of the lowest non-empty
// bucket and empties that bucket into the heap and strictly lower buckets.
type queueState struct {
	now      time.Duration
	floor    time.Duration
	heap     []heapEntry // 4-ary min-heap ordered by (at, lane, seq, sub)
	buckets  [64]bucket
	occupied uint64      // bit b set while buckets[b] holds entries
	bucketed int         // entries across all buckets
	spare    *chunk      // emptied chunks for reuse: memory, not simulated state
	slots    []eventSlot // callback arena referenced by queued entries and Timers
	free     int32       // head of the slot free list (-1 when empty)
	fired    uint64
	// subSeq is the queue's sub-key counter. It never resets, so a
	// re-scheduled event's key always sorts after every key this queue has
	// already executed — the property that keeps execution order equal to
	// key order in both kernels.
	subSeq uint32
}

// heapEntry is a queued occurrence: the (at, lane, seq, sub) ordering key
// plus a generation-checked reference into the slot arena. Entries are moved
// by value between buckets and during sifts; the slot never moves, so
// Timers stay valid.
type heapEntry struct {
	at   time.Duration
	seq  uint64
	lane int32
	sub  uint32
	slot int32
	gen  uint32
}

// bucket is one radix bucket: a stack of chunks, and the least at among its
// entries, which becomes the floor when the bucket is refilled from.
type bucket struct {
	top *chunk
	min time.Duration
}

// chunkLen is a bucket chunk's entry count: 63 entries and the 32-byte
// header fill the 2 KiB allocation size class (64 would round up to 2,304
// bytes). Chunks come from a per-queue free list, so a queue retains its
// peak entry count plus at most one partial chunk per bucket, where slices
// per bucket would retain the sum of every bucket's own peak.
const chunkLen = 63

// chunk is a fixed block of bucket entries, linked into its bucket's stack.
type chunk struct {
	next *chunk
	e    []heapEntry // capacity chunkLen, never grown
}

// Event is what an event slot holds: Fire runs when the event's key comes up.
type Event interface{ Fire() }

// funcEvent is a func() as an Event. A func value is one pointer, so the
// conversion stores it in the interface without allocating.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// eventSlot parks an event between scheduling and execution. gen increments
// every time the slot is released (fired or cancelled), invalidating any
// outstanding queued entry or Timer that still references the old occupancy.
type eventSlot struct {
	ev   Event
	next int32 // free-list link; -1 while occupied
	gen  uint32
}

// New returns a Scheduler whose clock starts at zero. The seed parameterizes
// every random stream derived with RNG, so two schedulers built from the
// same seed replay identical executions.
func New(seed int64) *Scheduler {
	return &Scheduler{
		qs:   []*queue{{queueState: queueState{free: -1}}},
		seed: seed,
	}
}

// Now returns the current virtual time of the root queue — the global clock
// in sequential mode and at parallel barriers. Partition events must use
// ContextNow/LaneNow instead: their queue's clock may lead the root clock
// inside a window.
func (s *Scheduler) Now() time.Duration { return s.qs[0].now }

// LaneNow returns the clock of the queue that owns lane. For a partition
// event running in a window this is the instant of the executing event.
func (s *Scheduler) LaneNow(lane int32) time.Duration {
	q, _ := s.queueFor(lane)
	return q.now
}

// ContextNow returns the clock of the current execution context for code
// running on behalf of lane: the lane's queue inside a parallel window, the
// root queue otherwise (sequential execution, parallel barriers, setup).
// Relative delays (After, tickers, timeouts) are measured from it.
func (s *Scheduler) ContextNow(lane int32) time.Duration {
	if s.par != nil && s.par.inWindow {
		q, _ := s.queueFor(lane)
		return q.now
	}
	return s.qs[0].now
}

// Seed returns the seed the scheduler was created with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Fired reports how many events have been executed so far, summed over all
// queues.
func (s *Scheduler) Fired() uint64 {
	var n uint64
	for _, q := range s.qs {
		n += q.fired
	}
	return n
}

// Pending reports how many events are currently queued, including cancelled
// events whose entries have not yet surfaced.
func (s *Scheduler) Pending() int {
	n := 0
	for _, q := range s.qs {
		n += q.len()
	}
	return n
}

// Timer is a handle to a scheduled event. Stop cancels the event if it has
// not fired yet. Timer is a small value — copying it is cheap and the zero
// value is an inert, already-stopped handle — so scheduling allocates
// nothing.
type Timer struct {
	s    *Scheduler
	at   time.Duration
	slot int32
	qi   int32 // queue the event was pushed into
	gen  uint32
}

// Stop cancels the timer. It reports whether the cancellation prevented the
// event from firing (false when the event already fired or was stopped).
// A timer may only be stopped from the execution context of the queue it
// was scheduled into (in parallel mode: the owning partition's worker, or
// a barrier).
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	q := t.s.qs[t.qi]
	if q.slots[t.slot].gen != t.gen {
		return false
	}
	q.releaseSlot(t.slot)
	return true
}

// Stopped reports whether the timer was cancelled or already fired.
func (t Timer) Stopped() bool {
	return t.s == nil || t.s.qs[t.qi].slots[t.slot].gen != t.gen
}

// When returns the virtual instant the timer is (or was) scheduled for.
func (t Timer) When() time.Duration { return t.at }

// At schedules fn on the root lane at virtual time at. Scheduling in the
// past (or at the present instant) runs the event at the current time but
// strictly after the event currently executing, preserving causal order.
func (s *Scheduler) At(at time.Duration, fn func()) Timer {
	return s.schedule(-1, at, fn)
}

// After schedules fn on the root lane d after the current virtual time.
// Negative durations are treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(-1, s.qs[0].now+d, fn)
}

// AtLane schedules fn at virtual time at on behalf of lane: the event
// carries lane in its ordering key and executes on the queue that owns the
// lane. Nodes must only schedule onto their own lane; cross-node effects go
// through the network.
func (s *Scheduler) AtLane(lane int32, at time.Duration, fn func()) Timer {
	return s.schedule(lane, at, fn)
}

// AfterLane schedules fn d after lane's current context time (see
// ContextNow). Negative durations are treated as zero.
func (s *Scheduler) AfterLane(lane int32, d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(lane, s.ContextNow(lane)+d, fn)
}

// schedule assigns fn its ordering key and pushes it onto lane's queue.
//
// The key has two forms. The common case is a fresh key (at, lane, seq)
// drawn from the lane's own counter. The delicate case is a same-instant
// re-schedule — an event scheduling work at or before the context clock,
// e.g. After(0) from a commit handler. Such an event adopts the key of the
// event currently executing plus a queue-local sub-sequence, which slots it
// immediately after its parent in the total order regardless of how lanes
// interleave. Both kernels apply the same rule, so the order is identical.
func (s *Scheduler) schedule(lane int32, at time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	dq, qi := s.queueFor(lane)
	cq := dq // execution context: the destination queue inside a window ...
	if s.par == nil || !s.par.inWindow {
		cq = s.qs[0] // ... the root queue everywhere else
	}
	var e heapEntry
	if cq.executing && at <= cq.now {
		cq.subSeq++
		e = heapEntry{at: cq.now, lane: cq.curLane, seq: cq.curSeq, sub: cq.subSeq}
	} else {
		if at < cq.now {
			at = cq.now
		}
		e = heapEntry{at: at, lane: lane, seq: s.takeLaneSeq(lane)}
	}
	e.slot = dq.acquireSlot(funcEvent(fn))
	e.gen = dq.slots[e.slot].gen
	dq.push(e)
	return Timer{s: s, at: e.at, slot: e.slot, qi: qi, gen: e.gen}
}

// ScheduleKeyed pushes ev with a fully specified key (at, keyLane, seq)
// onto the queue owning routeLane. The network's delivery path uses it: a
// message's key belongs to its sender (assigned at send time via
// TakeLaneSeq) while the event — the flight itself — executes on the
// receiver's queue.
func (s *Scheduler) ScheduleKeyed(routeLane, keyLane int32, seq uint64, at time.Duration, ev Event) {
	dq, _ := s.queueFor(routeLane)
	slot := dq.acquireSlot(ev)
	dq.push(heapEntry{at: at, lane: keyLane, seq: seq, slot: slot, gen: dq.slots[slot].gen})
}

// TakeLaneSeq draws the next sequence number of lane's key counter. The
// counter is consumed in the lane's deterministic execution order in both
// kernels, which is what makes sender-assigned message keys mode-invariant.
func (s *Scheduler) TakeLaneSeq(lane int32) uint64 {
	return s.takeLaneSeq(lane)
}

func (s *Scheduler) takeLaneSeq(lane int32) uint64 {
	i := int(lane) + 1
	if i >= len(s.laneSeq) {
		if s.par != nil {
			panic(fmt.Sprintf("sim: lane %d outside the partition plan", lane))
		}
		grown := make([]uint64, max(i+1, 2*len(s.laneSeq)))
		copy(grown, s.laneSeq)
		s.laneSeq = grown
	}
	v := s.laneSeq[i]
	s.laneSeq[i] = v + 1
	return v
}

// queueFor maps a lane to its queue. Unplanned lanes (including the root
// lane -1) route to the root queue.
func (s *Scheduler) queueFor(lane int32) (*queue, int32) {
	if lq := s.laneQueue; lq != nil {
		if i := int(lane); uint(i) < uint(len(lq)) {
			qi := lq[i]
			return s.qs[qi], qi
		}
	}
	return s.qs[0], 0
}

// Step executes the earliest pending event. It reports whether an event was
// executed (false when the queue is empty or the scheduler was halted).
// Step requires the sequential kernel.
func (s *Scheduler) Step() bool {
	if s.par != nil {
		panic("sim: Step requires the sequential kernel")
	}
	return s.qs[0].step(s)
}

// step pops entries until a live one surfaces and executes it.
func (q *queue) step(s *Scheduler) bool {
	for !s.halted && q.head() {
		e := q.pop()
		sl := &q.slots[e.slot]
		if sl.gen != e.gen { // cancelled; slot already recycled
			continue
		}
		q.exec(e, sl.ev)
		return true
	}
	return false
}

// drain executes every live event with key < bound, in key order. Both
// kernels run on it: sequential RunUntil drains the root queue to the
// deadline horizon, parallel windows drain each partition queue to the
// window bound.
func (q *queue) drain(s *Scheduler, bound heapEntry) {
	for !s.halted && q.head() && q.heap[0].less(bound) {
		e := q.pop()
		sl := &q.slots[e.slot]
		if sl.gen != e.gen {
			continue
		}
		q.exec(e, sl.ev)
	}
}

// exec runs one event: slot release, clock advance, execution context.
func (q *queue) exec(e heapEntry, ev Event) {
	q.releaseSlot(e.slot)
	q.now = e.at
	q.fired++
	q.executing = true
	q.curLane, q.curSeq, q.curSub = e.lane, e.seq, e.sub
	ev.Fire()
	q.executing = false
}

// settleHead pops cancelled entries until a live event (true) or emptiness
// (false) surfaces, so callers can trust heap[0].
func (q *queue) settleHead() bool {
	for q.head() {
		e := q.heap[0]
		if q.slots[e.slot].gen == e.gen {
			return true
		}
		q.pop()
	}
	return false
}

// RunUntil executes events in key order until the virtual clock would pass
// deadline, then advances the clock to exactly deadline. Events scheduled at
// the deadline itself are executed.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	if s.par != nil {
		s.runParallel(deadline)
		return
	}
	q := s.qs[0]
	q.drain(s, horizonBound(deadline))
	if !s.halted && q.now < deadline {
		q.now = deadline
	}
}

// Run executes events until the queue drains or the scheduler is halted.
// maxEvents bounds the number of executed events to guard against runaway
// event loops; it returns an error when the bound is hit. Run requires the
// sequential kernel.
func (s *Scheduler) Run(maxEvents uint64) error {
	var n uint64
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			return fmt.Errorf("sim: run exceeded %d events at t=%s", maxEvents, s.qs[0].now)
		}
	}
	return nil
}

// Halt stops the scheduler: Step, Run and RunUntil return without executing
// further events. Pending events remain queued. Halt must be called from the
// root execution context; partition events cannot halt the world mid-window.
func (s *Scheduler) Halt() {
	if s.par != nil && s.par.inWindow {
		panic("sim: Halt from a partition event")
	}
	s.halted = true
}

// Halted reports whether Halt was called.
func (s *Scheduler) Halted() bool { return s.halted }

// RNG derives a deterministic random stream from the scheduler seed and a
// name. Streams with distinct names are statistically independent, and the
// same (seed, name) pair always yields the same stream, so adding a new
// consumer does not perturb existing ones. Every call returns a fresh stream
// positioned at its start — restarted nodes re-deriving a stream replay it
// from the beginning, which the determinism of restarts depends on.
//
// The stream is registered with the scheduler so Snapshot/Restore can rewind
// it. A stream must only be drawn from one lane's execution context; the
// per-name derivation makes that free (each node derives its own names).
func (s *Scheduler) RNG(name string) *rand.Rand {
	return s.RNGFromSeed(s.RNGSeed(name))
}

// stream is one registered RNG stream: its source and the rand.Rand that
// draws from it, allocated together.
type stream struct {
	src countingSource
	rng rand.Rand
}

// streamBlock is a block of streams and how many of them are registered.
type streamBlock struct {
	streams *[64]stream
	n       int
}

// RNGFromSeed returns a fresh registered stream for an already-derived seed
// (see RNGSeed). Callers that build the name themselves (simnet) use it so
// their streams still participate in Snapshot/Restore.
func (s *Scheduler) RNGFromSeed(seed int64) *rand.Rand {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if len(s.streams) == cap(s.streams) {
		s.streams = make([]stream, 0, 64)
		s.sources = append(s.sources, streamBlock{streams: (*[64]stream)(s.streams[:64])})
	}
	s.streams = s.streams[:len(s.streams)+1]
	s.sources[len(s.sources)-1].n++
	st := &s.streams[len(s.streams)-1]
	st.src = countingSource{seed: seed, state: uint64(seed)}
	st.rng = *rand.New(&st.src)
	return &st.rng
}

// RNGSeed returns the derived seed behind RNG(name): the 64-bit FNV-1a hash
// of the name, as hash/fnv computes it, mixed with the scheduler seed. It
// keeps nothing of name, so a name converted from a short buffer stays off
// the heap.
func (s *Scheduler) RNGSeed(name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return int64(h^uint64(s.seed)*0x9E3779B97F4A7C15) ^ s.seed
}

// acquireSlot parks ev in a free slot and returns its index.
func (q *queue) acquireSlot(ev Event) int32 {
	if q.free >= 0 {
		slot := q.free
		sl := &q.slots[slot]
		q.free = sl.next
		sl.ev = ev
		sl.next = -1
		return slot
	}
	q.slots = append(q.slots, eventSlot{ev: ev, next: -1})
	return int32(len(q.slots) - 1)
}

// releaseSlot retires a slot's current occupancy: the generation bump
// invalidates outstanding Timers and queued entries, and the slot joins the
// free list for reuse.
func (q *queue) releaseSlot(slot int32) {
	sl := &q.slots[slot]
	sl.ev = nil
	sl.gen++
	sl.next = q.free
	q.free = slot
}

// less orders entries by the total event key (at, lane, seq, sub): time
// first, then the scheduling lane (the root lane -1 sorts before all node
// lanes), then the lane's sequence counter, then the same-instant
// sub-sequence.
func (e heapEntry) less(o heapEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.lane != o.lane {
		return e.lane < o.lane
	}
	if e.seq != o.seq {
		return e.seq < o.seq
	}
	return e.sub < o.sub
}

// len counts the queued entries, cancelled ones included.
func (q *queueState) len() int { return len(q.heap) + q.bucketed }

// head reports whether the queue holds an entry, refilling the heap from the
// buckets when it has run dry; when it does, heap[0] is the least entry.
// Peeking may move the floor past a drain bound: push is correct for any at.
func (q *queue) head() bool { return len(q.heap) > 0 || q.refill() }

// push queues an entry: into the heap at or before the floor, else as an
// append to its bucket.
func (q *queue) push(e heapEntry) {
	if e.at <= q.floor {
		q.heapPush(e)
		return
	}
	q.bucketed++
	q.bucketPush(e)
}

// bucketPush appends an entry later than the floor to its bucket. refill
// repeats these lines in its loop, with the floor and the occupied mask in
// locals: as a call per entry, the loop runs 20–30 % slower.
func (q *queueState) bucketPush(e heapEntry) {
	b := bits.Len64(uint64(e.at^q.floor)) - 1
	bk := &q.buckets[b]
	c := bk.top
	if c == nil || len(c.e) == chunkLen {
		c = q.newChunk(c)
		bk.top = c
	}
	c.e = append(c.e, e)
	if m := uint64(1) << b; q.occupied&m == 0 || e.at < bk.min {
		bk.min = e.at
		q.occupied |= m
	}
}

// newChunk takes an empty chunk, from the free list when it has one, and
// links it on top of next.
func (q *queueState) newChunk(next *chunk) *chunk {
	c := q.spare
	if c == nil {
		m := new(struct { // one allocation: the chunk and its entries
			chunk
			buf [chunkLen]heapEntry
		})
		c = &m.chunk
		c.e = m.buf[:0]
	} else {
		q.spare = c.next
	}
	c.next, c.e = next, c.e[:0]
	return c
}

// refill moves the floor to the least at of the lowest non-empty bucket b
// and empties that bucket: entries at the new floor go to the heap, every
// other one to a bucket below b. Bucket b's entries all agree with the old
// floor above bit b and have bit b set, and so does the new floor, so they
// differ from it only below b. Entries of the buckets above b differ from
// the old floor at their own bit, above b, where the new floor still agrees
// with the old one: they keep their index. It reports false when every
// bucket is empty.
func (q *queue) refill() bool {
	if q.occupied == 0 {
		return false
	}
	b := bits.TrailingZeros64(q.occupied)
	q.occupied &^= 1 << b
	bk := &q.buckets[b]
	c := bk.top
	bk.top = nil
	floor, occupied := bk.min, q.occupied
	q.floor = floor
	for c != nil {
		for _, e := range c.e {
			if e.at == floor {
				q.bucketed--
				q.heapPush(e)
				continue
			}
			i := bits.Len64(uint64(e.at^floor)) - 1 // bucketPush, inlined
			d := &q.buckets[i]
			t := d.top
			if t == nil || len(t.e) == chunkLen {
				t = q.newChunk(t)
				d.top = t
			}
			t.e = append(t.e, e)
			if m := uint64(1) << i; occupied&m == 0 || e.at < d.min {
				d.min = e.at
				occupied |= m
			}
		}
		next := c.next
		c.next, q.spare = q.spare, c
		c = next
	}
	q.occupied = occupied
	return true
}

// heapPush inserts an entry into the 4-ary min-heap.
func (q *queueState) heapPush(e heapEntry) {
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.heap = h
}

// pop removes and returns the minimum entry; the caller has seen head()
// report true.
func (q *queue) pop() heapEntry {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	q.heap = h[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown places e starting from the root, shifting smaller children up.
// The 4-ary layout halves the tree depth of a binary heap; four 32-byte
// children span two cache lines.
func (q *queue) siftDown(e heapEntry) {
	h := q.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c // index of the smallest child
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
