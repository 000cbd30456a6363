package sim_test

import (
	"testing"
	"time"

	"stabl/internal/sim"
)

// The scheduler microbenchmarks isolate the event queue, the hot path every
// STABL run multiplies by millions. Run with:
//
//	go test -bench=. -benchmem ./internal/sim

// BenchmarkSchedulerPushPop schedules a batch of events at staggered times and
// drains them: the pure queue cost with a trivial callback. This is the
// acceptance gate for kernel work — events/s must not regress and the
// optimized queue must hold zero allocs/op in steady state.
func BenchmarkSchedulerPushPop(b *testing.B) {
	const batch = 1024
	s := sim.New(1)
	var fired int
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := s.Now()
		for j := 0; j < batch; j++ {
			// Staggered times exercise real heap movement; the modulus
			// keeps several events per instant to cover FIFO ties.
			s.At(base+time.Duration(j%37)*time.Millisecond, fn)
		}
		for s.Step() {
		}
	}
	b.StopTimer()
	if fired != b.N*batch {
		b.Fatalf("fired %d, want %d", fired, b.N*batch)
	}
	reportRate(b, uint64(b.N)*batch, "events/s")
}

// BenchmarkSchedulerTimerChurn schedules and immediately cancels timers, the
// pattern of per-round consensus timeouts that almost never fire.
func BenchmarkSchedulerTimerChurn(b *testing.B) {
	const batch = 1024
	s := sim.New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			t := s.After(time.Duration(j%11+1)*time.Second, fn)
			t.Stop()
		}
		for s.Step() { // drain the cancelled entries
		}
	}
	reportRate(b, uint64(b.N)*batch, "events/s")
}

// BenchmarkSchedulerMixed interleaves scheduling from inside callbacks with
// cancellations, approximating a live consensus round: each fired event
// schedules a successor and arms-then-cancels a timeout.
func BenchmarkSchedulerMixed(b *testing.B) {
	s := sim.New(1)
	var pendingStop sim.Timer
	var tick func()
	tick = func() {
		pendingStop.Stop()
		pendingStop = s.After(5*time.Second, func() {})
		s.After(time.Millisecond, tick)
	}
	s.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	reportRate(b, uint64(b.N), "events/s")
}

// BenchmarkSchedulerRNG measures deriving a named random stream, which chain
// models do on every (re)start and the workload generator does per client.
func BenchmarkSchedulerRNG(b *testing.B) {
	s := sim.New(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.RNG("bench.stream")
	}
}

func reportRate(b *testing.B, n uint64, unit string) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)/sec, unit)
	}
}
