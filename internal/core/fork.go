package core

import (
	"fmt"
	"time"

	"stabl/internal/scenario"
	"stabl/internal/snapshot"
)

// ForkPoint is a whole-experiment checkpoint taken at a virtual instant.
// Rewinding it restores the live experiment to that instant, so independent
// continuations run sequentially on the same object graph: fork, run
// continuation A to the end, rewind, run continuation B. Each continuation is
// byte-identical to a from-scratch replay of the same schedule (the fork
// goldens enforce this).
type ForkPoint struct {
	exp   *Experiment
	at    time.Duration
	state snapshot.State
	// compiled is the timeline the experiment followed at the checkpoint;
	// Rewind puts it back after a steered continuation.
	compiled *scenario.Compiled
}

// Fork captures the experiment at its current virtual instant: every part
// Build's stages registered, the scheduler first. Checkpoints hold the
// sequential kernel's layout (one event queue, one flight pool), so an
// experiment on the parallel kernel does not fork.
func (e *Experiment) Fork() (*ForkPoint, error) {
	if err := e.forkable(); err != nil {
		return nil, err
	}
	return &ForkPoint{exp: e, at: e.sched.Now(), state: e.parts.Snapshot(), compiled: e.compiled}, nil
}

// forkable refuses a parallel experiment, started or not.
func (e *Experiment) forkable() error {
	if e.sched.Parallel() {
		return fmt.Errorf("core: cannot fork a parallel simulation (SimWorkers=%d); build it with SimWorkers=0", e.cfg.SimWorkers)
	}
	return nil
}

// At returns the virtual instant the checkpoint was taken at.
func (f *ForkPoint) At() time.Duration { return f.at }

// Rewind restores the experiment to the checkpoint instant. The experiment's
// clock, event queue, network, chain nodes, clients, recorders and fault
// timeline all return to their checkpoint-time state; the caller resumes with
// RunUntil.
func (f *ForkPoint) Rewind() {
	f.exp.parts.Restore(f.state)
	f.exp.compiled = f.compiled
}

// CheckpointLead is how far before the first disruptive action an adaptive
// checkpoint is taken: the scheduler stops one nanosecond short so the
// action's own event stays queued inside the checkpoint.
const CheckpointLead = time.Nanosecond

// RunToCheckpoint starts the experiment, advances it to just before its
// first disruptive action and forks there. It returns nil (and leaves the
// experiment un-started) when the run injects nothing — callers fall back to
// a plain replay — and an error, without starting it, when the experiment is
// parallel.
func RunToCheckpoint(e *Experiment) (*ForkPoint, error) {
	if err := e.forkable(); err != nil {
		return nil, err
	}
	at := e.compiled.FirstDisrupt
	if at <= 0 || at > e.cfg.Duration {
		return nil, nil
	}
	e.Start()
	e.RunUntil(at - CheckpointLead)
	return e.Fork()
}
