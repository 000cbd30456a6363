package campaign

import (
	"fmt"
	"time"

	"stabl/internal/core"
	"stabl/internal/metrics"
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
// grid order: with forking on, each checkpoint family becomes one unit
// (members in grid order), and every other cell is its own singleton unit.
// Units are ordered by their first member, so progress output walks the grid
// in the same order in every mode.
func groupFamilies(cells []Cell, forking bool) [][]int {
	var units [][]int
	byKey := make(map[familyKey]int)
	for i, cell := range cells {
		key, ok := cell.family()
		if !ok || !forking {
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

// family runs the cells of one unit, in the order the unit's driver asks for
// them. A cell measured with fork set shares the family checkpoint: the
// first one builds the family's altered experiment, runs it to the
// checkpoint just before the first disruptive action and resumes from
// there; every later one rewinds that checkpoint and is steered onto its own
// timeline. The members of a family (Cell.family) share their pre-fault
// prefix, and run one after another because they rewind one live object
// graph. Any other cell, and every cell the checkpoint cannot serve, is
// replayed from scratch, which is all grid mode does; both paths score the
// same run, so results are byte-identical across the modes.
type family struct {
	*engine
	results []*CellResult
	st      CheckpointStats

	baseline *core.RunResult
	fp       *core.ForkPoint
	exp      *core.Experiment
	// rec instruments the whole family: it is part of the fork set, so
	// rewinding returns it to its checkpoint state and each continuation's
	// clone holds exactly that member's timeline.
	rec        *metrics.Recorder
	prefixWall time.Duration
	// replayAll replays every remaining member: the family has no
	// checkpoint to take, or a member's panic corrupted the live graph.
	replayAll bool
}

// measure runs one cell and records its result. A cell whose coordinate is
// invalid (e.g. a count exceeding the fault-eligible pool) fails alone,
// without costing the family its checkpoint; a panic inside the model run
// fails only this cell, with the message a from-scratch run reports.
func (f *family) measure(cell Cell, fork bool) (res *CellResult) {
	res = &CellResult{Cell: cell}
	defer func() {
		if v := recover(); v != nil {
			res.Error = fmt.Sprintf("panic: %v", v)
			f.replayAll = true
		}
		f.results = append(f.results, res)
		f.report(res)
	}()
	cfg, err := cellConfig(f.spec, cell, f.opts.Resolve)
	if err == nil && f.baseline == nil {
		// The cache memoizes a failure; every member reports it.
		f.baseline, err = f.baselines.get(cell.System, cell.Seed, cfg)
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	resumed := false
	if fork && !f.replayAll && f.exp == nil {
		repCfg := cfg
		if f.opts.Metrics != nil {
			f.rec = metrics.NewRecorder(f.opts.MetricsInterval)
			repCfg.Metrics = f.rec
		}
		// No disruptive action, an unforkable system, or a prefix panic
		// leave nothing to share (a panicking prefix panics identically in
		// each member's own run).
		f.fp, f.exp, f.prefixWall = checkpointPrefix(repCfg)
		f.replayAll = f.fp == nil
		// The representative's timeline is already loaded: it resumes
		// straight from the checkpoint it just produced, so it runs prefix
		// and suffix itself.
		resumed = !f.replayAll
	}
	var cmp *core.Comparison
	var rec *metrics.Recorder
	switch {
	case !fork || f.replayAll:
		f.st.FullReplays++
		if f.opts.Metrics != nil {
			rec = metrics.NewRecorder(f.opts.MetricsInterval)
			cfg.Metrics = rec
		}
		cmp, err = core.CompareWithBaseline(cfg, f.baseline)
	default:
		if resumed {
			f.st.Families++
			f.st.FullReplays++
		} else {
			sibling, terr := cfg.Timeline()
			if terr != nil {
				// What the member's own run reports (core.CompareWithBaseline).
				res.Error = fmt.Sprintf("altered run: %v", terr)
				return res
			}
			f.fp.Rewind()
			f.exp.Steer(sibling)
			f.st.ForkServed++
			f.st.WallSaved += f.prefixWall
		}
		cmp, rec, err = f.resume(cfg)
	}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	scoreCell(res, cell, cmp)
	if rec != nil {
		f.opts.Metrics(cell, rec)
	}
	return res
}

// resume runs the loaded experiment from the checkpoint to the end, scores
// it, and clones the family recorder's state for this member.
func (f *family) resume(cfg core.Config) (*core.Comparison, *metrics.Recorder, error) {
	f.exp.RunUntil(f.exp.Config().Duration)
	cmp, err := core.ScoreWithBaseline(cfg, f.baseline, f.exp.Collect())
	if err != nil || f.rec == nil {
		return cmp, nil, err
	}
	return cmp, f.rec.Clone(), nil
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
