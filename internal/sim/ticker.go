package sim

import "time"

// Ticker repeatedly invokes a function at a fixed virtual-time interval
// until stopped. Unlike time.Ticker there is no channel: the callback runs
// inline in the event loop.
type Ticker struct {
	sched *Scheduler
	lane  int32
	fn    func()
	fire  func() // bound once so re-arming allocates no new closure
	tickerState
}

// tickerState is a ticker's mutable state. The Ticker object itself is
// identity-preserved: its bound fire closure sits in checkpointed event
// slots, so the scheduler's Restore writes this back through the pointer.
type tickerState struct {
	interval time.Duration
	timer    Timer
	stopped  bool
}

// NewTicker schedules fn every interval on the root lane, with the first
// invocation one interval from now. It panics on a non-positive interval,
// which would otherwise wedge the event loop at a single instant.
func NewTicker(sched *Scheduler, interval time.Duration, fn func()) *Ticker {
	return NewLaneTicker(sched, -1, interval, fn)
}

// NewLaneTicker is NewTicker on behalf of lane: ticks carry the lane in
// their ordering key and execute on the lane's queue, so a node's periodic
// work stays inside its own partition in parallel mode.
func NewLaneTicker(sched *Scheduler, lane int32, interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{sched: sched, lane: lane, fn: fn, tickerState: tickerState{interval: interval}}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	// Register for Snapshot/Restore: a ticker stopped or re-armed by one
	// forked continuation must rewind for the next (see snapshot.go).
	sched.regMu.Lock()
	sched.tickers = append(sched.tickers, t)
	sched.regMu.Unlock()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.sched.AfterLane(t.lane, t.interval, t.fire)
}

// Stop cancels future ticks. It is idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

// Reset changes the tick interval; the next tick fires one new interval from
// the current instant. Resetting a stopped ticker restarts it.
func (t *Ticker) Reset(interval time.Duration) {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t.timer.Stop()
	t.interval = interval
	t.stopped = false
	t.arm()
}
