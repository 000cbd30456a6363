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

// Fork captures the experiment at its current virtual instant. It fails when
// the deployed system's validators do not implement snapshot.Forkable.
func Fork(e *Experiment) (*ForkPoint, error) {
	set, err := e.forkSet()
	if err != nil {
		return nil, err
	}
	return &ForkPoint{exp: e, at: e.sched.Now(), state: set.Snapshot(), compiled: e.compiled}, nil
}

// Fork captures the experiment at its current virtual instant; see the
// package-level Fork.
func (e *Experiment) Fork() (*ForkPoint, error) { return Fork(e) }

// At returns the virtual instant the checkpoint was taken at.
func (f *ForkPoint) At() time.Duration { return f.at }

// Rewind restores the experiment to the checkpoint instant. The experiment's
// clock, event queue, network, chain nodes, clients, recorders and fault
// timeline all return to their checkpoint-time state; the caller resumes with
// RunUntil.
func (f *ForkPoint) Rewind() {
	set, err := f.exp.forkSet()
	if err != nil {
		// forkSet succeeded when the checkpoint was taken and the part
		// list never changes afterwards.
		panic(fmt.Sprintf("core: fork set vanished: %v", err))
	}
	set.Restore(f.state)
	f.exp.compiled = f.compiled
}

// forkSet assembles (once) the snapshot.Set covering every stateful component
// of the experiment. The scheduler comes first: its restore rewinds the
// registered RNG streams and tickers that every other component's closures
// draw from.
func (e *Experiment) forkSet() (*snapshot.Set, error) {
	if e.forkable != nil {
		return e.forkable, nil
	}
	// Checkpoints snapshot the sequential layout (one event queue, one
	// flight pool), so a parallel experiment deterministically falls back
	// to the sequential kernel before its first fork — output is identical
	// either way, only wall-clock time differs. Once a parallel run has
	// started its queues hold partition events and the fallback is closed.
	if e.sched.Parallel() {
		if e.started {
			return nil, fmt.Errorf("core: cannot fork a running parallel simulation; fork before Start or set SimWorkers=0")
		}
		e.monitor.DisableParallel()
		e.net.DisableParallel()
		e.sched.DisableParallel()
	}
	set := &snapshot.Set{}
	set.Add(e.sched, e.net, e.monitor)
	for i, v := range e.validators {
		forkable, ok := v.(snapshot.Forkable)
		if !ok {
			return nil, fmt.Errorf("core: system %s does not support forking: validator %d (%T) is not snapshot.Forkable",
				e.cfg.System.Name(), i, v)
		}
		set.Add(forkable)
	}
	for _, fl := range e.flows {
		set.Add(fl)
	}
	for _, fg := range e.flowGens {
		set.Add(fg)
	}
	for _, r := range e.readers {
		set.Add(r)
	}
	for _, o := range e.observers {
		set.Add(o)
	}
	set.Add(e.primary)
	if e.rec != nil {
		set.Add(e.rec)
	}
	e.forkable = set
	return set, nil
}

// CheckpointLead is how far before the first disruptive action an adaptive
// checkpoint is taken: the scheduler stops one nanosecond short so the
// action's own event stays queued inside the checkpoint.
const CheckpointLead = time.Nanosecond

// RunToCheckpoint starts the experiment, advances it to just before its
// first disruptive action and forks there. It returns nil (and leaves the
// experiment un-started) when the run injects nothing or the system is not
// forkable — callers fall back to a plain replay.
func RunToCheckpoint(e *Experiment) (*ForkPoint, error) {
	at := e.compiled.FirstDisrupt
	if at <= 0 || at > e.cfg.Duration {
		return nil, nil
	}
	if _, err := e.forkSet(); err != nil {
		return nil, nil
	}
	e.Start()
	e.RunUntil(at - CheckpointLead)
	return Fork(e)
}
