package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"stabl/internal/chain"
	"stabl/internal/core"
	"stabl/internal/metrics"
	"stabl/internal/pool"
	"stabl/internal/scenario"
)

// Options configure a campaign run. They are deliberately not part of the
// JSON Spec: worker count and progress reporting change how fast a campaign
// runs, never what it measures.
type Options struct {
	// Workers bounds how many cells execute concurrently; GOMAXPROCS
	// when zero or negative.
	Workers int
	// Resolve maps a system name to a fresh model instance; required.
	// It must be safe for concurrent use (stabl.SystemByName is).
	Resolve func(string) (chain.System, error)
	// Progress, when set, is called after every cell completes, from
	// worker goroutines but never concurrently. done counts completed
	// cells, total is the campaign size.
	Progress func(done, total int, res *CellResult)
	// Metrics, when set, attaches a fresh metrics.Recorder to every
	// cell's altered run and hands it over once the cell completes
	// without error. Called from worker goroutines, possibly
	// concurrently — the callback must be safe for concurrent use
	// (writing one file per Cell.Slug is). Each cell gets its own
	// recorder, so per-cell output stays byte-identical at any worker
	// count.
	Metrics func(cell Cell, rec *metrics.Recorder)
	// MetricsInterval is the recorders' aggregation interval;
	// metrics.DefaultInterval when zero.
	MetricsInterval time.Duration
}

// Run expands the spec and executes every cell on the worker pool. A cell
// whose model run panics (e.g. Solana's EAH panic path) or whose config is
// invalid is reported as a failed cell; only a nil Resolve, an invalid
// spec or an unknown system/fault name fail the campaign itself. Cancelling
// ctx stops scheduling new cells; already-started cells finish and the
// partial result is still aggregated and returned.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	if opts.Resolve == nil {
		return nil, fmt.Errorf("campaign: Options.Resolve is required")
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cells, err := expand(spec, opts.Resolve)
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: spec expands to zero cells")
	}

	baselines := newBaselineCache()
	results := make([]*CellResult, len(cells))
	progress := &progressTracker{total: len(cells), fn: opts.Progress}

	var checkpoint *CheckpointStats
	if spec.Mode == ModeAdaptive {
		checkpoint = runAdaptive(ctx, spec, cells, opts, baselines, results, progress)
	} else {
		errs := pool.ForEach(ctx, len(cells), opts.Workers, func(i int) error {
			res := runCell(spec, cells[i], opts, baselines)
			results[i] = res
			progress.report(res)
			return nil
		})
		// runCell captures its own panics, so pool errors are cancellation
		// (skipped cells) or a panic in the bookkeeping above; either way
		// the cell failed without a measurement.
		for i, err := range errs {
			if err != nil {
				results[i] = &CellResult{Cell: cells[i], Error: err.Error()}
			}
		}
	}
	res := aggregate(spec, results)
	res.Checkpoint = checkpoint
	return res, nil
}

// progressTracker serializes per-cell progress callbacks across workers.
type progressTracker struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int, res *CellResult)
}

func (p *progressTracker) report(res *CellResult) {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(p.done, p.total, res)
	p.mu.Unlock()
}

// Validate applies defaults, validates the spec and expands its grid
// without executing anything, returning how many cells it would run. Every
// scenario is additionally compiled against the spec's deployment as core
// lays it out, so node sets that exceed the fault-eligible pool fail at lint
// time, not per cell. The pool depends on the system (aggregated flows leave
// its worst-case fault set client-free), so the scenarios compile once,
// against the system with the smallest pool.
func Validate(spec Spec, resolve func(string) (chain.System, error)) (int, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return 0, err
	}
	var env scenario.Env
	for _, name := range spec.Systems {
		base := spec.Base
		base.System = name
		cfg, err := base.Config(resolve)
		if err != nil {
			return 0, err
		}
		if d := cfg.Deployment(); d.Clients >= env.Clients {
			env = d
		}
	}
	// Range checks do not depend on the drawn values, any source works.
	//stabl:nodet globalrand -- validation-only compile: drawn values are discarded, no run consumes this stream
	rng := rand.New(rand.NewSource(1))
	env.RNG = func(string) *rand.Rand { return rng }
	for _, sc := range spec.Scenarios {
		built, err := sc.Build()
		if err != nil {
			return 0, err
		}
		if _, err := built.Compile(env); err != nil {
			return 0, err
		}
	}
	cells, err := expand(spec, resolve)
	if err != nil {
		return 0, err
	}
	if len(cells) == 0 {
		return 0, fmt.Errorf("campaign: spec expands to zero cells")
	}
	return len(cells), nil
}

// cellConfig materializes one cell's core config from the spec's deployment
// template and the cell coordinate.
func cellConfig(spec Spec, cell Cell, resolve func(string) (chain.System, error)) (core.Config, error) {
	cellSpec := spec.Base
	cellSpec.System = cell.System
	cellSpec.Seed = cell.Seed
	cellSpec.CommitteeSize = cell.CommitteeSize
	// The cell sweeps the topology name only; the template's overlay tuning
	// (fanout, bucket size, …) applies to every swept topology alike.
	cellSpec.Overlay.Topology = cell.Overlay
	if cell.Scenario != "" {
		sc, ok := spec.scenarioByName(cell.Scenario)
		if !ok {
			return core.Config{}, fmt.Errorf("campaign: unknown scenario %q", cell.Scenario)
		}
		scaled := sc.Scaled(cell.Intensity)
		cellSpec.Scenario = &scaled
		cellSpec.Fault = core.FaultSpec{}
	} else {
		cellSpec.Scenario = nil
		cellSpec.Fault = core.FaultSpec{
			Kind:       cell.Fault,
			Count:      cell.Count,
			InjectSec:  cell.InjectSec,
			RecoverSec: cell.InjectSec + cell.OutageSec,
			SlowBySec:  cell.SlowBySec,
		}
	}
	return cellSpec.Config(resolve)
}

// scoreCell digests a comparison into the cell's measurement fields.
func scoreCell(res *CellResult, cell Cell, cmp *core.Comparison) {
	res.Score = cmp.Score.Value
	res.Infinite = cmp.Score.Infinite
	res.Benefit = cmp.Score.Benefit
	res.Recovered = cmp.Recovered
	res.RecoverySec = cmp.RecoveryTime.Seconds()
	if cell.InjectSec > 0 {
		// Stabilization: how long after injection the altered run
		// sustained the baseline steady-state rate again, the
		// flip side of Compare's recovery (measured from healing).
		inject := time.Duration(cell.InjectSec * float64(time.Second))
		ref := core.SteadyStateRate(cmp.Baseline, inject)
		stab, ok := cmp.Altered.Throughput.RecoveryTime(
			inject, ref, core.RecoveryFraction, core.RecoveryWindow)
		res.Stabilized = ok
		res.StabilizationSec = stab.Seconds()
	}
}

// runCell executes one cell: materialize its config, fetch (or compute) the
// shared baseline, run the altered environment and digest the comparison.
// Any panic inside the model run fails only this cell.
func runCell(spec Spec, cell Cell, opts Options, baselines *baselineCache) (res *CellResult) {
	res = &CellResult{Cell: cell}
	defer func() {
		if v := recover(); v != nil {
			res.Error = fmt.Sprintf("panic: %v", v)
		}
	}()

	cfg, err := cellConfig(spec, cell, opts.Resolve)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	var rec *metrics.Recorder
	if opts.Metrics != nil {
		rec = metrics.NewRecorder(opts.MetricsInterval)
		cfg.Metrics = rec
	}

	baseline, err := baselines.get(cell.System, cell.Seed, cfg)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	cmp, err := core.CompareWithBaseline(cfg, baseline)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	scoreCell(res, cell, cmp)
	if rec != nil {
		opts.Metrics(cell, rec)
	}
	return res
}

// baselineCache shares fault-free baseline runs across cells. Within one
// campaign every cell uses the same deployment template, so the baseline is
// fully determined by (system, seed, committee size, overlay): a grid of
// dozens of fault cells pays for each baseline once instead of once per cell.
// Committee size and overlay topology join the key because they change the
// fault-free run itself, unlike the swept fault dimensions.
type baselineCache struct {
	mu sync.Mutex
	m  map[baselineKey]*baselineEntry
}

type baselineKey struct {
	system    string
	seed      int64
	committee int
	overlay   string
}

type baselineEntry struct {
	once sync.Once
	res  *core.RunResult
	err  error
}

func newBaselineCache() *baselineCache {
	return &baselineCache{m: make(map[baselineKey]*baselineEntry)}
}

func (c *baselineCache) get(system string, seed int64, cfg core.Config) (*core.RunResult, error) {
	key := baselineKey{system: system, seed: seed, committee: cfg.CommitteeSize, overlay: cfg.Overlay.Topology}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &baselineEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		// A panicking baseline must fail every cell that shares it,
		// not the campaign.
		defer func() {
			if v := recover(); v != nil {
				e.err = fmt.Errorf("panic: %v", v)
			}
		}()
		e.res, e.err = core.Run(core.BaselineConfig(cfg))
	})
	if e.err != nil {
		return nil, fmt.Errorf("baseline %s seed %d: %w", system, seed, e.err)
	}
	return e.res, nil
}
