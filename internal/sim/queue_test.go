package sim

// Edge-case and property tests for the radix / slot-arena event queue. These
// live in the sim package (not sim_test) so they can drive the queue against
// a reference container/heap implementation and a sorted-slice model, and
// poke at slot recycling directly.

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestStopOnRecycledSlotIsInert is the generation-fence contract: once a
// timer's slot has been recycled by a later event, the stale handle must
// neither cancel the new occupant nor report success.
func TestStopOnRecycledSlotIsInert(t *testing.T) {
	s := New(1)
	stale := s.After(time.Second, func() { t.Fatal("stopped event fired") })
	if !stale.Stop() {
		t.Fatal("first Stop should succeed")
	}
	// The freed slot is recycled by the next schedule.
	fired := false
	fresh := s.After(2*time.Second, func() { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("expected slot reuse, got %d then %d", stale.slot, fresh.slot)
	}
	if stale.Stop() {
		t.Fatal("stale Stop on recycled slot reported success")
	}
	if !stale.Stopped() {
		t.Fatal("stale handle should report stopped")
	}
	s.RunUntil(3 * time.Second)
	if !fired {
		t.Fatal("stale Stop cancelled the slot's new occupant")
	}
}

// TestStopAcrossManyRecycles hammers one slot through many generations and
// checks an ancient handle stays inert.
func TestStopAcrossManyRecycles(t *testing.T) {
	s := New(1)
	ancient := s.After(time.Second, func() {})
	ancient.Stop()
	for i := 0; i < 100; i++ {
		tm := s.After(time.Second, func() {})
		tm.Stop()
	}
	live := s.After(time.Second, func() {})
	if ancient.Stop() {
		t.Fatal("ancient handle cancelled someone else's event")
	}
	if live.Stopped() {
		t.Fatal("live timer reported stopped")
	}
}

// TestRunUntilExactDeadline checks the boundary contract: events scheduled
// at precisely the deadline execute, and the clock lands exactly on the
// deadline afterwards even when the last event fires earlier.
func TestRunUntilExactDeadline(t *testing.T) {
	s := New(1)
	var at, after bool
	s.At(10*time.Second, func() { at = true })
	s.At(10*time.Second+1, func() { after = true })
	s.RunUntil(10 * time.Second)
	if !at {
		t.Fatal("event at the exact deadline did not run")
	}
	if after {
		t.Fatal("event one tick past the deadline ran")
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("clock at %s, want exactly 10s", s.Now())
	}
	// A second RunUntil picks the remaining event up.
	s.RunUntil(11 * time.Second)
	if !after {
		t.Fatal("remaining event did not run on the next window")
	}
	if s.Now() != 11*time.Second {
		t.Fatalf("clock at %s, want 11s", s.Now())
	}
}

// TestRunUntilDeadlineWithNoEvents advances the clock even on an empty queue.
func TestRunUntilDeadlineWithNoEvents(t *testing.T) {
	s := New(1)
	s.RunUntil(5 * time.Second)
	if s.Now() != 5*time.Second {
		t.Fatalf("clock at %s, want 5s", s.Now())
	}
}

// refQueue is a reference priority queue built on container/heap, ordered
// by the full (at, lane, seq, sub) key — the shape of the kernel before the
// inlined 4-ary rewrite — used as the oracle for the pop-order property test.
type refQueue []heapEntry

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q refQueue) Less(i, j int) bool { return q[i].less(q[j]) }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(heapEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old) - 1
	e := old[n]
	*q = old[:n]
	return e
}

// TestPropertyQueueMatchesReference drives the radix queue and a
// container/heap oracle with the same randomized interleaving of pushes,
// peeks and pops and demands identical full-key pop order throughout. Pushes
// land at the floor, below it (after a peek moved it ahead of the clock),
// just above it and far above it; lanes, sequence numbers and sub-sequences
// vary so every key part decides some ties.
func TestPropertyQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := New(seed).qs[0]
		ref := &refQueue{}
		seq := uint64(1) // ties below take seq 0, so no two keys are equal
		check := func(where string, op int) {
			got := q.pop()
			q.releaseSlot(got.slot)
			want := heap.Pop(ref).(heapEntry)
			if got != want {
				t.Fatalf("seed %d %s %d: popped %+v, reference says %+v", seed, where, op, got, want)
			}
			q.now = got.at
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(8); {
			case ref.Len() == 0 || r < 5: // bias toward pushes
				var at time.Duration
				switch rng.Intn(4) {
				case 0:
					at = q.floor
				case 1:
					at = q.now + time.Duration(rng.Int63n(int64(q.floor-q.now)+1))
				case 2:
					at = q.floor + time.Duration(rng.Intn(1<<12))
				default:
					at = q.floor + time.Duration(rng.Int63n(1<<42))
				}
				e := heapEntry{at: at, lane: int32(rng.Intn(5)) - 1, seq: seq, sub: uint32(rng.Intn(3))}
				if rng.Intn(4) == 0 { // a same-instant tie on (at, lane, seq)
					e.at, e.lane, e.seq, e.sub = q.now, -1, 0, uint32(seq)
				}
				e.slot = q.acquireSlot(funcEvent(func() {}))
				e.gen = q.slots[e.slot].gen
				q.push(e)
				heap.Push(ref, e)
				seq++
			case r == 5: // a peek alone may move the floor ahead of the clock
				if !q.head() {
					t.Fatalf("seed %d op %d: queue empty, reference holds %d", seed, op, ref.Len())
				}
			default:
				if !q.head() {
					t.Fatalf("seed %d op %d: queue empty, reference holds %d", seed, op, ref.Len())
				}
				check("op", op)
			}
			if q.len() != ref.Len() {
				t.Fatalf("seed %d op %d: queue holds %d entries, reference %d", seed, op, q.len(), ref.Len())
			}
		}
		for i := 0; ref.Len() > 0; i++ {
			if !q.head() {
				t.Fatalf("seed %d: queue empty, reference holds %d", seed, ref.Len())
			}
			check("drain", i)
		}
		if q.head() || q.len() != 0 {
			t.Fatalf("seed %d: %d entries left after draining the reference", seed, q.len())
		}
	}
}

// TestPropertyCancelledEntriesStayQueued pins the lazy-cancellation
// semantics the golden runs depend on: Stop leaves the heap entry in place
// (Pending counts it) and Step skips it without firing.
func TestPropertyCancelledEntriesStayQueued(t *testing.T) {
	s := New(7)
	var fired int
	timers := make([]Timer, 0, 100)
	for i := 0; i < 100; i++ {
		timers = append(timers, s.After(time.Duration(i+1)*time.Millisecond, func() { fired++ }))
	}
	for i := 0; i < 100; i += 2 {
		timers[i].Stop()
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending = %d after lazy cancellation, want 100", s.Pending())
	}
	for s.Step() {
	}
	if fired != 50 {
		t.Fatalf("fired %d events, want the 50 uncancelled ones", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
}

// TestSlotArenaReusesMemory checks steady-state churn does not grow the
// arena: repeated schedule/fire cycles should settle on a bounded slot count.
func TestSlotArenaReusesMemory(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.After(time.Millisecond, func() {})
		s.Step()
	}
	if len(s.qs[0].slots) > 2 {
		t.Fatalf("slot arena grew to %d slots under serial churn, want <= 2", len(s.qs[0].slots))
	}
}

// queueModel is FuzzEventQueue's oracle for one scheduler: every queued
// entry sorted by its full key, cancelled ones included until they surface
// (as the queue keeps them), so Pending compares exactly. It is a value
// that clones, so a checkpoint of the scheduler pairs with one of the model.
type queueModel struct {
	entries []modelEntry
	timers  []modelTimer
	fired   uint64
	spawns  int // how many more children running events may schedule
}

type modelEntry struct {
	key   EventKey
	id    int
	live  bool
	child byte // what the event schedules when it runs (see fire)
}

type modelTimer struct {
	t  Timer
	id int
}

func (m *queueModel) clone() queueModel {
	c := *m
	c.entries = slices.Clone(m.entries)
	c.timers = slices.Clone(m.timers)
	return c
}

// queueFuzz drives a real scheduler and its model with one op stream.
type queueFuzz struct {
	t   *testing.T
	s   *Scheduler
	m   queueModel
	ids int // next event id, never rewound: ids stay unique across restores
}

func (h *queueFuzz) insert(key EventKey, child byte) int {
	id := h.ids
	h.ids++
	i, _ := slices.BinarySearchFunc(h.m.entries, key, func(e modelEntry, k EventKey) int {
		switch {
		case e.key.Less(k):
			return -1
		case k.Less(e.key):
			return 1
		}
		return 0
	})
	h.m.entries = slices.Insert(h.m.entries, i, modelEntry{key: key, id: id, live: true, child: child})
	return id
}

// atLane schedules through AtLane. The model derives the key the way the
// kernel documents it: a same-instant re-schedule from a running event takes
// the running event's key and the queue's next sub-sequence, anything else a
// fresh (max(at, now), lane, lane counter) key.
func (h *queueFuzz) atLane(lane int32, at time.Duration, child byte) {
	q := h.s.qs[0]
	var key EventKey
	if q.executing && at <= q.now {
		key = EventKey{At: q.now, Lane: q.curLane, Seq: q.curSeq, Sub: q.subSeq + 1}
	} else {
		key = EventKey{At: max(at, q.now), Lane: lane}
		if i := int(lane) + 1; i < len(h.s.laneSeq) {
			key.Seq = h.s.laneSeq[i]
		}
	}
	id := h.insert(key, child)
	h.m.timers = append(h.m.timers, modelTimer{t: h.s.AtLane(lane, at, func() { h.fire(id) }), id: id})
}

// keyed schedules through ScheduleKeyed, the network's delivery path.
func (h *queueFuzz) keyed(lane int32, at time.Duration, child byte) {
	at = max(at, h.s.qs[0].now)
	seq := h.s.TakeLaneSeq(lane)
	id := h.insert(EventKey{At: at, Lane: lane, Seq: seq}, child)
	h.s.ScheduleKeyed(lane, lane, seq, at, funcEvent(func() { h.fire(id) }))
}

// surface drops the cancelled entries at the model's head that sort before
// limit, as the queue pops them on its way to a live one.
func (h *queueFuzz) surface(limit func(EventKey) bool) {
	for len(h.m.entries) > 0 && !h.m.entries[0].live && limit(h.m.entries[0].key) {
		h.m.entries = h.m.entries[1:]
	}
}

// fire is every event's body: it must be the model's least live entry and
// run under that entry's key. Some events schedule a child when they run —
// a same-instant re-schedule or a later one — while the spawn budget lasts.
func (h *queueFuzz) fire(id int) {
	h.surface(func(EventKey) bool { return true })
	if len(h.m.entries) == 0 {
		h.t.Fatalf("event %d ran; the model holds no live event", id)
	}
	e := h.m.entries[0]
	if e.id != id {
		h.t.Fatalf("event %d ran; the model's next is %d at %+v", id, e.id, e.key)
	}
	if got := h.s.ExecKey(e.key.Lane); got != e.key {
		h.t.Fatalf("event %d ran under key %+v, want %+v", id, got, e.key)
	}
	h.m.entries = h.m.entries[1:]
	h.m.fired++
	if h.m.spawns == 0 || e.child == 0 {
		return
	}
	h.m.spawns--
	now := h.s.qs[0].now
	switch e.child % 3 {
	case 0:
		h.atLane(-1, now, e.child>>2)
	case 1:
		h.atLane(int32(e.child%5)-1, now+time.Duration(e.child)*time.Microsecond, e.child>>2)
	default:
		h.keyed(int32(e.child%5)-1, now+time.Duration(e.child)<<20, e.child>>2)
	}
}

// at picks an instant relative to the queue's floor: at it, below it (the
// floor leads the clock after a drain peeked past its bound), just above it,
// far above it, or a link delay after the clock.
func (h *queueFuzz) at(mode, x byte) time.Duration {
	q := h.s.qs[0]
	switch mode % 5 {
	case 0:
		return q.floor
	case 1:
		if q.floor > q.now {
			return q.now + time.Duration(uint64(q.floor-q.now)*uint64(x)/256)
		}
		return q.now
	case 2:
		return q.floor + time.Duration(x) + 1
	case 3:
		return q.floor + time.Duration(x)<<32
	default:
		return q.now + time.Duration(x)*time.Millisecond
	}
}

func (h *queueFuzz) check(op int) {
	if got, want := h.s.Pending(), len(h.m.entries); got != want {
		h.t.Fatalf("op %d: Pending %d, the model holds %d entries", op, got, want)
	}
	if got, want := h.s.Fired(), h.m.fired; got != want {
		h.t.Fatalf("op %d: Fired %d, the model ran %d", op, got, want)
	}
}

// FuzzEventQueue interprets a byte string as ops on a real scheduler and on
// a sorted-slice model keyed by (at, lane, seq, sub): pushes at, below and
// far above the queue's floor through AtLane and ScheduleKeyed, events that
// re-schedule at their own instant or later, Timer.Stop on live, fired and
// recycled slots, Step, RunUntil to a bound (which peeks past it and may
// leave the floor ahead of the clock for the next pushes), and Snapshot /
// Restore mid-stream. Every event must run in model order under its key,
// Pending and Fired must match after every op, and the final drain must run
// exactly the model's live events.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 1, 3, 9, 1, 5, 4, 5, 7, 0, 1, 2, 9, 4})
	f.Add([]byte{0, 3, 200, 2, 5, 1, 1, 7, 0, 0, 30, 1, 0, 4, 0, 6, 2, 4, 3, 0, 3, 1, 7, 0, 0, 0, 7})
	f.Add([]byte{2, 3, 99, 1, 0, 0, 1, 4, 3, 3, 5, 9, 3, 1, 6, 1, 1, 200, 0, 1, 0, 1, 2, 0, 7, 0, 3, 1, 4})
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := &queueFuzz{t: t, s: New(1), m: queueModel{spawns: 64}}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var saved *schedCheck
		var savedModel queueModel
		for op := 0; op < 512 && len(ops) > 0; op++ {
			switch next() % 8 {
			case 0, 1:
				lane, mode, x := int32(next()%5)-1, next(), next()
				h.atLane(lane, h.at(mode, x), next())
			case 2:
				lane, mode, x := int32(next()%5)-1, next(), next()
				h.keyed(lane, h.at(mode, x), next())
			case 3:
				if len(h.m.timers) == 0 {
					break
				}
				tm := h.m.timers[int(next())%len(h.m.timers)]
				i := slices.IndexFunc(h.m.entries, func(e modelEntry) bool { return e.id == tm.id })
				want := i >= 0 && h.m.entries[i].live
				if got := tm.t.Stop(); got != want {
					t.Fatalf("op %d: Stop of event %d = %v, want %v", op, tm.id, got, want)
				}
				if want {
					h.m.entries[i].live = false
				}
				if !tm.t.Stopped() {
					t.Fatalf("op %d: event %d's timer not stopped after Stop", op, tm.id)
				}
			case 4:
				if !h.s.Step() {
					h.surface(func(EventKey) bool { return true })
					if len(h.m.entries) != 0 {
						t.Fatalf("op %d: Step found nothing; the model holds %+v", op, h.m.entries[0])
					}
				}
			case 5:
				d := time.Duration(next()) * time.Millisecond
				if x := next(); x%4 == 0 {
					d = time.Duration(x) << 34
				}
				deadline := h.s.Now() + d
				h.s.RunUntil(deadline)
				h.surface(func(k EventKey) bool { return k.At <= deadline })
				if len(h.m.entries) > 0 && h.m.entries[0].key.At <= deadline {
					t.Fatalf("op %d: RunUntil(%v) left %+v", op, deadline, h.m.entries[0])
				}
				if h.s.Now() != deadline {
					t.Fatalf("op %d: clock at %v after RunUntil(%v)", op, h.s.Now(), deadline)
				}
			case 6:
				saved, savedModel = h.s.Snapshot().(*schedCheck), h.m.clone()
			case 7:
				if saved != nil {
					h.s.Restore(saved)
					h.m = savedModel.clone()
				}
			}
			h.check(op)
		}
		if err := h.s.Run(0); err != nil {
			t.Fatal(err)
		}
		h.surface(func(EventKey) bool { return true })
		if len(h.m.entries) != 0 {
			t.Fatalf("final drain left %+v unrun", h.m.entries[0])
		}
		h.check(-1)
	})
}
