// Package pool provides the bounded worker pool shared by the chaos-campaign
// engine and the integrity census. Every STABL experiment is an independent
// deterministic simulation, so fault-space exploration parallelizes
// trivially: ForEach fans a fixed set of jobs out over a bounded number of
// goroutines, recovers per-job panics into errors, and honours context
// cancellation, while callers keep deterministic output by writing results
// into index-addressed slots.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError reports a panic recovered from one job. The job's failure is
// isolated: the remaining jobs keep running.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ForEach invokes job(i) for every i in [0, n) on at most workers concurrent
// goroutines (GOMAXPROCS when workers <= 0) and returns one error slot per
// job, in index order. A panic inside a job is recovered into a *PanicError
// at that job's slot; jobs not yet started when ctx is cancelled are skipped
// and report ctx.Err(). ForEach always waits for in-flight jobs before
// returning.
func ForEach(ctx context.Context, n, workers int, job func(int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = protect(job, i)
			}
		}()
	}
	wg.Wait()
	return errs
}

// protect runs job(i), converting a panic into a *PanicError.
func protect(job func(int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return job(i)
}
