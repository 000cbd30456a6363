package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"
)

// Conservative parallel mode (PDES).
//
// EnableParallel splits the event queue into one root queue plus `workers`
// partition queues, with a lane->queue plan supplied by the caller (see
// internal/parsim). RunUntil then advances in lookahead windows:
//
//  1. Barrier. Run the registered hooks (the network flushes buffered
//     cross-partition deliveries, the monitor merges buffered records), then
//     find the globally minimal pending event key.
//  2. If that key belongs to the root queue, execute that one event alone —
//     root events (observers injecting faults, connection management, gauge
//     samplers) may touch any node, so they run with every partition
//     quiesced, exactly at their position in the total order.
//  3. Otherwise open a window: every partition queue may safely execute all
//     events with key < bound, where bound is the minimum of
//       - minKey.at + lookahead (no cross-partition message sent at or
//         after minKey.at can arrive before this horizon),
//       - the root queue's next event key, and
//       - the RunUntil deadline horizon.
//     Each busy partition drains on its own goroutine; single-partition
//     windows inline on the coordinator.
//
// The lookahead is the static lower bound of the network's link latency.
// Degradation primitives only add delay (extra delay, jitter) or drop
// messages (loss), so the bound stays conservative under every fault the
// scenario engine can express.
//
// Determinism: every event's key is assigned at scheduling time from state
// owned by a single execution context (the sender's lane counter, or the
// executing queue's sub-sequence), so keys — and therefore the merged
// execution order — are identical for any worker count, including the
// sequential kernel. The parallel goldens in the root package hold the
// kernel to that bit-for-bit.

// EventKey is the total-order position of a scheduled event: virtual time,
// scheduling lane, per-lane sequence and same-instant sub-sequence. The
// chain monitor stamps buffered records with it to merge them into
// sequential order at barriers.
type EventKey struct {
	At   time.Duration
	Lane int32
	Seq  uint64
	Sub  uint32
}

// Less orders keys like the event queue orders events.
func (k EventKey) Less(o EventKey) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	if k.Lane != o.Lane {
		return k.Lane < o.Lane
	}
	if k.Seq != o.Seq {
		return k.Seq < o.Seq
	}
	return k.Sub < o.Sub
}

// ExecKey returns the key of the event currently executing on lane's queue.
// Only valid from that queue's execution context.
func (s *Scheduler) ExecKey(lane int32) EventKey {
	q, _ := s.queueFor(lane)
	return EventKey{At: q.now, Lane: q.curLane, Seq: q.curSeq, Sub: q.curSub}
}

// ParallelStats measures a parallel run's windowed execution. BusyWall is
// the summed wall-clock execution time of all queues; CriticalWall sums each
// window's slowest queue (plus all root-event time), i.e. the modeled
// wall-clock floor with enough cores. BusyWall/CriticalWall is the
// load-balance parallelism the partition plan exposes.
type ParallelStats struct {
	Windows      uint64
	BusyWall     time.Duration
	CriticalWall time.Duration
}

// parRun is the parallel-mode state hanging off a Scheduler.
type parRun struct {
	workers   int
	lookahead time.Duration
	inWindow  bool // written by the coordinator between windows, read by workers inside
	hooks     []func()
	stats     ParallelStats

	// cmds (per worker: next window bound) and results live for one
	// RunUntil call: runParallel makes them with its workers and closes
	// cmds on return.
	cmds    []chan heapEntry
	results chan parResult
	active  []int // scratch: busy workers of the current window
}

// parResult is one worker's window report.
type parResult struct {
	w     int
	busy  time.Duration
	pan   any
	stack []byte
}

// EnableParallel switches the scheduler into conservative parallel mode:
// lanes are routed to partition queues by laneQueue (values 0..workers,
// 0 = root queue), and RunUntil advances all queues concurrently in windows
// of the given lookahead — the static minimum cross-partition message
// latency. Must be called before any non-root lane has scheduled events;
// output stays byte-identical to the sequential kernel for any worker count.
func (s *Scheduler) EnableParallel(laneQueue []int32, workers int, lookahead time.Duration) {
	if s.par != nil {
		panic("sim: EnableParallel called twice")
	}
	if workers < 1 {
		panic("sim: EnableParallel needs at least one worker")
	}
	if lookahead <= 0 {
		panic("sim: EnableParallel needs a positive lookahead")
	}
	for lane, qi := range laneQueue {
		if qi < 0 || int(qi) > workers {
			panic(fmt.Sprintf("sim: lane %d routed to queue %d, outside [0,%d]", lane, qi, workers))
		}
	}
	s.laneQueue = append([]int32(nil), laneQueue...)
	root := s.qs[0]
	for i := 0; i < workers; i++ {
		s.qs = append(s.qs, &queue{queueState: queueState{free: -1, now: root.now}})
	}
	if need := len(laneQueue) + 1; need > len(s.laneSeq) {
		grown := make([]uint64, need)
		copy(grown, s.laneSeq)
		s.laneSeq = grown
	}
	p := &parRun{
		workers:   workers,
		lookahead: lookahead,
		active:    make([]int, 0, workers),
	}
	s.par = p
}

// DisableParallel reverts an un-started scheduler to the sequential kernel,
// the deterministic fallback the forking API uses (checkpoints snapshot a
// single queue). It panics if any partition queue already holds events.
func (s *Scheduler) DisableParallel() {
	if s.par == nil {
		return
	}
	for _, q := range s.qs[1:] {
		if len(q.heap) != 0 {
			panic("sim: DisableParallel with pending partition events")
		}
	}
	s.qs = s.qs[:1]
	s.laneQueue = nil
	s.par = nil
}

// Parallel reports whether the scheduler is in parallel mode.
func (s *Scheduler) Parallel() bool { return s.par != nil }

// Workers returns the partition worker count (0 in sequential mode).
func (s *Scheduler) Workers() int {
	if s.par == nil {
		return 0
	}
	return s.par.workers
}

// InWindow reports whether a parallel lookahead window is currently open —
// i.e. whether the caller may be a partition event running concurrently
// with other partitions.
func (s *Scheduler) InWindow() bool { return s.par != nil && s.par.inWindow }

// OnBarrier registers a hook that runs at every window barrier (and before
// root events), with all partitions quiesced. The network and the chain
// monitor use it to inject buffered cross-partition work in key order.
func (s *Scheduler) OnBarrier(hook func()) {
	if s.par == nil {
		panic("sim: OnBarrier without EnableParallel")
	}
	s.par.hooks = append(s.par.hooks, hook)
}

// ParallelStats returns the accumulated window measurements (zero value in
// sequential mode).
func (s *Scheduler) ParallelStats() ParallelStats {
	if s.par == nil {
		return ParallelStats{}
	}
	return s.par.stats
}

// horizonBound is the exclusive drain bound for a deadline: every event at
// or before the deadline sorts below it, nothing after does.
func horizonBound(deadline time.Duration) heapEntry {
	return heapEntry{at: deadline + 1, lane: math.MinInt32}
}

// runParallel is RunUntil in parallel mode. Workers are spawned per call
// and torn down on return, so idle schedulers hold no goroutines.
func (s *Scheduler) runParallel(deadline time.Duration) {
	p := s.par
	p.cmds = make([]chan heapEntry, p.workers)
	p.results = make(chan parResult, p.workers)
	for w := 1; w <= p.workers; w++ {
		p.cmds[w-1] = make(chan heapEntry, 1)
		go worker(s, s.qs[w], w, p.cmds[w-1], p.results)
	}
	defer func() {
		for _, c := range p.cmds {
			close(c)
		}
	}()

	end := horizonBound(deadline)
	for !s.halted {
		s.runBarrierHooks()
		qi := s.minQueue()
		if qi < 0 {
			break
		}
		head := s.qs[qi].heap[0]
		if !head.less(end) {
			break
		}
		if qi == 0 {
			// Root event: execute solo at its exact position in the
			// total order, every partition quiesced.
			t0 := wallStart()
			s.qs[0].step(s)
			d := wallSince(t0)
			p.stats.BusyWall += d
			p.stats.CriticalWall += d
			continue
		}
		bound := end
		if h := (heapEntry{at: head.at + p.lookahead, lane: math.MinInt32}); h.less(bound) {
			bound = h
		}
		if root := s.qs[0]; len(root.heap) > 0 && root.heap[0].less(bound) {
			bound = root.heap[0]
		}
		s.window(bound)
	}
	s.runBarrierHooks()
	if !s.halted {
		for _, q := range s.qs {
			if q.now < deadline {
				q.now = deadline
			}
		}
	}
}

// window drains every partition queue with work below bound, concurrently.
func (s *Scheduler) window(bound heapEntry) {
	p := s.par
	active := p.active[:0]
	for w := 1; w <= p.workers; w++ {
		q := s.qs[w]
		if q.settleHead() && q.heap[0].less(bound) {
			active = append(active, w)
		}
	}
	p.active = active
	p.stats.Windows++
	if len(active) == 1 {
		// One busy partition: drain inline, skipping the goroutine
		// round-trip. inWindow still opens so execution-context rules
		// (self-lane clamps, outboxed sends) apply identically.
		p.inWindow = true
		t0 := wallStart()
		s.qs[active[0]].drain(s, bound)
		d := wallSince(t0)
		p.inWindow = false
		p.stats.BusyWall += d
		p.stats.CriticalWall += d
		return
	}
	p.inWindow = true
	for _, w := range active {
		p.cmds[w-1] <- bound
	}
	var maxBusy time.Duration
	first := parResult{w: p.workers + 1}
	for range active {
		r := <-p.results
		p.stats.BusyWall += r.busy
		if r.busy > maxBusy {
			maxBusy = r.busy
		}
		// Panics surface after the window closes; the lowest worker
		// index wins so the failure is deterministic.
		if r.pan != nil && r.w < first.w {
			first = r
		}
	}
	p.inWindow = false
	p.stats.CriticalWall += maxBusy
	if first.pan != nil {
		panic(fmt.Sprintf("sim: partition %d event panicked: %v\n%s", first.w, first.pan, first.stack))
	}
}

// worker drains its queue to each window bound the coordinator sends.
func worker(s *Scheduler, q *queue, w int, cmd <-chan heapEntry, results chan<- parResult) {
	for bound := range cmd {
		r := parResult{w: w}
		t0 := wallStart()
		func() {
			defer func() {
				if v := recover(); v != nil {
					r.pan = v
					r.stack = debug.Stack()
				}
			}()
			q.drain(s, bound)
		}()
		r.busy = wallSince(t0)
		results <- r
	}
}

// minQueue settles every queue's head and returns the index of the queue
// holding the globally minimal live event, or -1 when all queues are empty.
func (s *Scheduler) minQueue() int {
	best := -1
	var bestHead heapEntry
	for i, q := range s.qs {
		if !q.settleHead() {
			continue
		}
		if best < 0 || q.heap[0].less(bestHead) {
			best = i
			bestHead = q.heap[0]
		}
	}
	return best
}

// runBarrierHooks runs the registered barrier hooks in registration order.
func (s *Scheduler) runBarrierHooks() {
	for _, h := range s.par.hooks {
		h()
	}
}

// Wall-clock reads live only in these two helpers: they feed the busy-time
// accounting of ParallelStats, which no simulated state ever observes.

//stabl:nodet wallclock -- host-side busy-time measurement; no simulated state reads it
func wallStart() time.Time { return time.Now() }

//stabl:nodet wallclock -- host-side busy-time measurement; no simulated state reads it
func wallSince(t0 time.Time) time.Duration { return time.Since(t0) }
