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
	// cells, total is the campaign size (0 in mode bisect, whose probe
	// count is not known in advance).
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
	return run(ctx, spec, opts, deltaCounts)
}

// RunPaperSuite is the paper's multi-seed CI sweep as a campaign preset:
// the spec's systems × faults × seeds, each node fault at the paper's count
// (core.PaperFaultCount: t for crashes, t+1 for the rest) where Run would
// sweep t + CountDeltas. Faults default to the paper's four: crash,
// transient, partition and the secure client.
func RunPaperSuite(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	if len(spec.Faults) == 0 && len(spec.Scenarios) == 0 {
		spec.Faults = []string{core.FaultCrash.String(), core.FaultTransient.String(),
			core.FaultPartition.String(), core.FaultSecureClient.String()}
	}
	return run(ctx, spec, opts, paperCounts)
}

// run is the one executor behind Run and RunPaperSuite: counts resolves each
// node fault's counts from the system's tolerance. Every mode hands the
// worker pool units of cells that share a family; grid units hold one cell.
func run(ctx context.Context, spec Spec, opts Options, counts countRule) (*Result, error) {
	if opts.Resolve == nil {
		return nil, fmt.Errorf("campaign: Options.Resolve is required")
	}
	spec, cells, err := prepare(spec, opts.Resolve, counts)
	if err != nil {
		return nil, err
	}
	e := &engine{ctx: ctx, spec: spec, opts: opts, baselines: newBaselineCache(), total: len(cells)}
	if spec.Mode == ModeBisect {
		e.total = 0 // the probe count is not known in advance
		return e.bisectAll(cells), nil
	}

	groups := groupFamilies(cells, spec.Mode == ModeAdaptive)
	results := make([]*CellResult, len(cells))
	errs := e.execute(len(groups), func(f *family, u int) {
		for _, i := range groups[u] {
			if ctx.Err() != nil {
				return
			}
			results[i] = f.measure(cells[i], len(groups[u]) > 1)
		}
	})
	// The cells a cancellation, or a panic in the bookkeeping, left
	// unmeasured failed without a measurement.
	for u, idxs := range groups {
		for _, i := range idxs {
			if err := errs[u]; results[i] == nil {
				if err == nil {
					err = ctx.Err() // only a cancellation cuts a unit short
				}
				results[i] = &CellResult{Cell: cells[i], Error: err.Error()}
			}
		}
	}
	res := aggregate(spec, results)
	if spec.Mode == ModeAdaptive {
		res.Checkpoint = &e.stats
	}
	return res, nil
}

// prepare applies defaults, validates the spec and expands its cells.
func prepare(spec Spec, resolve func(string) (chain.System, error), counts countRule) (Spec, []Cell, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return spec, nil, err
	}
	if spec.Mode == ModeBisect && spec.Bisect.Axis == AxisCount {
		// The search sets every count, so none is dropped as f < 1.
		counts = func(Spec, core.FaultKind, int) []int { return []int{0} }
	}
	cells, err := expand(spec, resolve, counts)
	if err == nil && len(cells) == 0 {
		err = fmt.Errorf("campaign: spec expands to zero cells")
	}
	return spec, cells, err
}

// engine is one campaign execution: what every unit reads, the baselines
// they share, and what they report.
type engine struct {
	ctx       context.Context
	spec      Spec
	opts      Options
	baselines *baselineCache

	mu    sync.Mutex // guards the fields below
	done  int        // cells measured, and Progress's total
	total int
	stats CheckpointStats // sums; the counts are deterministic at any worker count
}

// report hands one measured cell to Options.Progress.
func (e *engine) report(res *CellResult) {
	if e.opts.Progress == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done++
	e.opts.Progress(e.done, e.total, res)
}

// execute runs n units on the worker pool, each driven through its own
// family, whose live experiment and checkpoint die with its unit. errs[u] is
// the pool's error for a unit it skipped on cancellation or whose
// bookkeeping panicked.
func (e *engine) execute(n int, drive func(f *family, u int)) (errs []error) {
	return pool.ForEach(e.ctx, n, e.opts.Workers, func(u int) error {
		f := &family{engine: e}
		defer func() {
			e.mu.Lock()
			defer e.mu.Unlock()
			e.stats.Families += f.st.Families
			e.stats.ForkServed += f.st.ForkServed
			e.stats.FullReplays += f.st.FullReplays
			e.stats.WallSaved += f.st.WallSaved
		}()
		drive(f, u)
		return nil
	})
}

// Validate applies defaults, validates the spec and expands its grid
// without executing anything, returning how many cells it would run (in mode
// bisect, how many bisections). Every
// scenario is additionally compiled against the spec's deployment as core
// lays it out, so node sets that exceed the fault-eligible pool fail at lint
// time, not per cell. The pool depends on the system (aggregated flows leave
// its worst-case fault set client-free), so the scenarios compile once,
// against the system with the smallest pool.
func Validate(spec Spec, resolve func(string) (chain.System, error)) (int, error) {
	spec, cells, err := prepare(spec, resolve, deltaCounts)
	if err != nil {
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
	if spec.Mode == ModeBisect {
		return len(spec.Bisect.templates(cells)), nil
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
