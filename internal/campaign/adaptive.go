package campaign

import (
	"context"
	"fmt"
	"time"

	"stabl/internal/core"
	"stabl/internal/metrics"
	"stabl/internal/pool"
)

// familyKey identifies a checkpoint family: cells that share their entire
// pre-fault prefix. Two cells are siblings when they deploy the same system
// with the same seed and their adversarial environments first diverge at the
// injection instant — same fault kind (the action script's shape), same
// inject and outage instants, differing only in swept magnitudes (fault
// count, slow-by delay, scenario intensity). The prefix of such runs is
// byte-identical, so one checkpoint serves the whole family.
type familyKey struct {
	system    string
	seed      int64
	fault     string
	scenario  string
	injectSec float64
	outageSec float64
	// committee and overlay join the key because they change the whole run
	// from the first round, not just the post-fault suffix: prefixes with
	// different committee sizes or gossip topologies are never
	// byte-identical.
	committee int
	overlay   string
}

// family returns the cell's checkpoint family, or ok=false when the cell
// cannot share a prefix: secure-client cells change the deployment itself
// (client fanout, doubled resources), so their runs diverge from the first
// event, not at the injection instant.
func (c Cell) family() (familyKey, bool) {
	if c.Scenario != "" {
		// Intensity scales magnitudes only (loss rate, delay, jitter);
		// the compiled timeline's instants and action count are fixed.
		return familyKey{system: c.System, seed: c.Seed, scenario: c.Scenario,
			committee: c.CommitteeSize, overlay: c.Overlay}, true
	}
	kind, err := core.ParseFaultKind(c.Fault)
	if err != nil || !kind.NeedsNodes() {
		return familyKey{}, false
	}
	return familyKey{
		system: c.System, seed: c.Seed, fault: c.Fault,
		injectSec: c.InjectSec, outageSec: c.OutageSec,
		committee: c.CommitteeSize, overlay: c.Overlay,
	}, true
}

// groupFamilies partitions the cell indices into execution units, preserving
// grid order: each checkpoint family becomes one unit (members in grid
// order), and every ineligible cell is its own singleton unit. Units are
// ordered by their first member, so progress output walks the grid in the
// same order as ModeGrid.
func groupFamilies(cells []Cell) [][]int {
	var units [][]int
	byKey := make(map[familyKey]int)
	for i, cell := range cells {
		key, ok := cell.family()
		if !ok {
			units = append(units, []int{i})
			continue
		}
		if u, seen := byKey[key]; seen {
			units[u] = append(units[u], i)
			continue
		}
		byKey[key] = len(units)
		units = append(units, []int{i})
	}
	return units
}

// unitStat accumulates one unit's contribution to the campaign's checkpoint
// statistics. Units aggregate into index-addressed slots, so the totals are
// deterministic at any worker count.
type unitStat struct {
	families    int
	forkServed  int
	fullReplays int
	wallSaved   time.Duration
}

// runAdaptive executes the cells family-by-family: each family's shared
// prefix runs once, is checkpointed just before the first disruptive action,
// and the members run as forked continuations of that checkpoint. Families
// execute in parallel on the worker pool; members within a family are
// inherently sequential (they rewind the same live object graph). Results
// are byte-identical to ModeGrid — every fallback path degrades to runCell,
// the grid-mode executor.
func runAdaptive(ctx context.Context, spec Spec, cells []Cell, opts Options,
	baselines *baselineCache, results []*CellResult, progress *progressTracker) *CheckpointStats {

	units := groupFamilies(cells)
	stats := make([]unitStat, len(units))
	errs := pool.ForEach(ctx, len(units), opts.Workers, func(u int) error {
		stats[u] = runFamily(ctx, spec, units[u], cells, opts, baselines, results, progress)
		return nil
	})
	for u, err := range errs {
		if err == nil {
			continue
		}
		// Cancellation (or a panic in the family bookkeeping itself):
		// every member without a measurement failed.
		for _, i := range units[u] {
			if results[i] == nil {
				results[i] = &CellResult{Cell: cells[i], Error: err.Error()}
			}
		}
	}
	total := &CheckpointStats{}
	for _, st := range stats {
		total.Families += st.families
		total.ForkServed += st.forkServed
		total.FullReplays += st.fullReplays
		total.WallSaved += st.wallSaved
	}
	return total
}

// runFamily executes one unit. Singletons and every fallback path run
// through runCell, so any cell the checkpoint machinery cannot serve is
// measured exactly as ModeGrid would measure it.
func runFamily(ctx context.Context, spec Spec, idxs []int, cells []Cell, opts Options,
	baselines *baselineCache, results []*CellResult, progress *progressTracker) (st unitStat) {

	replay := func(i int) {
		res := runCell(spec, cells[i], opts, baselines)
		results[i] = res
		st.fullReplays++
		progress.report(res)
	}

	if len(idxs) == 1 {
		replay(idxs[0])
		return st
	}

	// Materialize every member's config first: a member whose coordinate is
	// invalid (e.g. a count delta exceeding the fault-eligible pool) fails
	// alone, without costing the family its checkpoint.
	cfgs := make([]core.Config, len(idxs))
	live := idxs[:0:0]
	for _, i := range idxs {
		cfg, err := cellConfig(spec, cells[i], opts.Resolve)
		if err != nil {
			res := &CellResult{Cell: cells[i], Error: err.Error()}
			results[i] = res
			progress.report(res)
			continue
		}
		cfgs[len(live)] = cfg
		live = append(live, i)
	}
	if len(live) == 0 {
		return st
	}
	cfgs = cfgs[:len(live)]

	fail := func(pos int, msg string) {
		res := &CellResult{Cell: cells[live[pos]], Error: msg}
		results[live[pos]] = res
		progress.report(res)
	}

	baseline, err := baselines.get(cells[live[0]].System, cells[live[0]].Seed, cfgs[0])
	if err != nil {
		// The cache memoizes the failure; every grid-mode member would
		// report the same message.
		for pos := range live {
			fail(pos, err.Error())
		}
		return st
	}

	// One recorder instruments the whole family: it is part of the fork
	// set, so rewinding returns it to its checkpoint state and each
	// continuation's clone holds exactly that member's timeline.
	repCfg := cfgs[0]
	var rec *metrics.Recorder
	if opts.Metrics != nil {
		rec = metrics.NewRecorder(opts.MetricsInterval)
		repCfg.Metrics = rec
	}

	fp, exp, prefixWall := checkpointPrefix(repCfg)
	if fp == nil {
		// No disruptive action, an unforkable system, or a prefix panic:
		// nothing to share, run every member from scratch (a panicking
		// prefix panics identically in each member's own run).
		for _, i := range live {
			if ctx.Err() != nil {
				return st
			}
			replay(i)
		}
		return st
	}
	st.families++

	// continuation runs one member from the checkpoint to the end and
	// scores it. A panic corrupts the live object graph, so the survivors
	// fall back to full replays; the panicking member itself reports the
	// same message a from-scratch run of its schedule would.
	corrupted := false
	horizon := exp.Config().Duration
	continuation := func(pos int) {
		cell := cells[live[pos]]
		res := &CellResult{Cell: cell}
		func() {
			defer func() {
				if v := recover(); v != nil {
					res.Error = fmt.Sprintf("panic: %v", v)
					corrupted = true
				}
			}()
			exp.RunUntil(horizon)
			altered := exp.Collect()
			cmp, err := core.ScoreWithBaseline(cfgs[pos], baseline, altered)
			if err != nil {
				res.Error = err.Error()
				return
			}
			scoreCell(res, cell, cmp)
			if rec != nil {
				opts.Metrics(cell, rec.Clone())
			}
		}()
		results[live[pos]] = res
		progress.report(res)
	}

	for pos := 0; pos < len(live); pos++ {
		if ctx.Err() != nil {
			return st
		}
		if corrupted {
			replay(live[pos])
			continue
		}
		if pos == 0 {
			// The representative's timeline is already loaded; it resumes
			// straight from the checkpoint it just produced.
			continuation(pos)
			st.fullReplays++ // it ran prefix + suffix itself
			continue
		}
		sibling, err := cfgs[pos].Timeline()
		if err != nil {
			// What the member's own run reports (core.CompareWithBaseline).
			fail(pos, fmt.Sprintf("altered run: %v", err))
			continue
		}
		fp.Rewind()
		exp.Steer(sibling)
		continuation(pos)
		st.forkServed++
		st.wallSaved += prefixWall
	}
	return st
}

// checkpointPrefix builds the family's altered experiment and runs it to the
// checkpoint, converting a prefix panic into a nil fork point (the fallback
// path replays members from scratch, reproducing the panic per cell). The
// returned duration is the wall-clock cost of the shared prefix — what every
// forked continuation avoids paying again.
func checkpointPrefix(cfg core.Config) (fp *core.ForkPoint, exp *core.Experiment, wall time.Duration) {
	defer func() {
		if v := recover(); v != nil {
			fp, exp = nil, nil
		}
	}()
	exp, err := core.Build(core.AlteredConfig(cfg))
	if err != nil {
		return nil, nil, 0
	}
	begin := time.Now() //stabl:nodet wallclock -- wall-clock speedup accounting only; the simulation never reads it
	fp, err = core.RunToCheckpoint(exp)
	wall = time.Since(begin) //stabl:nodet wallclock -- wall-clock speedup accounting only; the simulation never reads it
	if err != nil || fp == nil {
		return nil, nil, 0
	}
	return fp, exp, wall
}
