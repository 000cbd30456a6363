// Command stabl runs STABL experiments from the command line and prints the
// paper's tables and figures as text.
//
// Usage:
//
//	stabl [flags] <command>
//
// Commands:
//
//	fig1            Aptos latency eCDFs, baseline vs f=t crashes (Fig 1)
//	fig3a           sensitivity to f=t crashes, all chains (Fig 3a)
//	fig3b           sensitivity to f=t+1 transient failures (Fig 3b)
//	fig3c           sensitivity to an f=t+1 partition (Fig 3c)
//	fig3d           sensitivity to the secure client (Fig 3d)
//	fig4|fig5|fig6  throughput over time under the respective fault
//	fig7            the full sensitivity matrix (Fig 7)
//	recovery        recovery times after transient failures and partitions
//	suite           multi-seed sweep over all systems and faults
//	run             one experiment for -system and -fault
//	scenario        one composed multi-phase fault scenario for -system:
//	                a canned one (-scenario cascade, see -list) or a spec
//	                file with a "scenario" block (-config)
//	spec            validate spec files: stabl spec -validate <glob>...
//	campaign        chaos campaign over a fault-space grid (-config spec);
//	                spec mode "adaptive" forks shared checkpoints at the
//	                fault-injection instant instead of replaying each cell
//	search          bisect one fault axis (-axis count|slowby|intensity,
//	                -lo, -hi) to the pass/fail tolerance boundary of
//	                -system; -shrink minimizes the failing scenario
//	lint            determinism static analysis: stabl lint [packages]
//
// Flags select the system, fault, seed and deployment size, and may come
// before or after the command (`stabl campaign -config spec.json`); see
// -help. With -metrics-out (run, scenario) or -metrics-dir (campaign), each
// run also dumps its virtual-time instrumentation — JSONL and CSV interval
// metrics plus an SVG timeline of latency, commit rate, fault and scenario
// phase markers and consensus events. -cpuprofile and -memprofile write
// pprof profiles of any command (most useful around run and campaign).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"stabl"
	"stabl/internal/lint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stabl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stabl", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 42, "simulation seed")
		duration   = fs.Duration("duration", 400*time.Second, "virtual experiment duration")
		validators = fs.Int("validators", 10, "number of blockchain nodes")
		clients    = fs.Int("clients", 5, "number of load clients")
		rate       = fs.Float64("rate", 40, "per-client send rate (tx/s)")
		committee  = fs.Int("committee", 0, "sortition committee size on systems that support it (Algorand); 0 = classic full-quorum mode")
		flows      = fs.Int("flows", 0, "aggregate the client population into this many flow generators (0 = one event loop per client)")
		flowAccts  = fs.Int("flow-accounts", 0, "modeled accounts per flow generator (0 = library default; only with -flows)")
		noConn     = fs.Bool("no-conn", false, "skip the O(clients*validators) managed connection layer (recommended for runs past ~100 validators)")
		overlayTop = fs.String("overlay", "", "route validator gossip over a structured overlay: kadcast|regular|ring (empty = legacy full mesh)")
		system     = fs.String("system", "Redbelly", "system for the run command")
		fault      = fs.String("fault", "none", "fault for the run command: none|crash|transient|partition|secure-client|slow")
		scenName   = fs.String("scenario", "", "canned scenario name for the scenario command (see `stabl scenario -list`)")
		scenList   = fs.Bool("list", false, "scenario and lint commands: list the canned scenarios / analyzers and exit")
		analyzers  = fs.String("analyzers", "", "lint command: comma-separated analyzer names (default: all)")
		validate   = fs.Bool("validate", false, "spec command: validate the spec files matching the given globs")
		inject     = fs.Duration("inject", 133*time.Second, "fault injection time")
		recover    = fs.Duration("recover", 266*time.Second, "fault recovery time")
		bucket     = fs.Duration("bucket", 20*time.Second, "throughput rendering bucket")
		svgDir     = fs.String("svg", "", "also write figures as SVG files into this directory")
		configPath = fs.String("config", "", "JSON experiment spec for the run command, campaign spec for the campaign command (overrides other flags)")
		jsonOut    = fs.Bool("json", false, "print machine-readable JSON instead of text (run, suite and campaign commands)")
		workers    = fs.Int("workers", 0, "concurrent runs for the suite and campaign commands (0 = GOMAXPROCS)")

		metricsOut      = fs.String("metrics-out", "", "write the altered run's metrics (JSONL, CSV, SVG timeline) into this directory (run command)")
		metricsDir      = fs.String("metrics-dir", "", "write per-cell metrics dumps and timelines into this directory (campaign command)")
		metricsInterval = fs.Duration("metrics-interval", 5*time.Second, "aggregation interval for -metrics-out and -metrics-dir")

		axisName  = fs.String("axis", "count", "search command: swept axis: count|slowby|intensity")
		axisLo    = fs.Float64("lo", 1, "search command: low end of the searched range (expected to pass)")
		axisHi    = fs.Float64("hi", 5, "search command: high end of the searched range")
		axisRes   = fs.Float64("resolution", 0, "search command: bracket resolution for non-integer axes (0 = range/64)")
		threshold = fs.Float64("threshold", 0, "search command: a finite score at or above this also fails (0 = only liveness loss)")
		shrink    = fs.Bool("shrink", false, "search command: delta-debug the failing scenario at the boundary to a minimal spec (intensity axis)")

		simWorkers = fs.Int("sim-workers", 0, "run the simulation on the conservative parallel kernel with this many partition queues (0 = sequential; outputs are byte-identical either way)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file when the command finishes")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("expected a command")
	}
	// Flags may also follow the command (`stabl campaign -config spec.json`).
	command := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	// Only the spec and lint commands take positional operands (glob or
	// package patterns).
	operands := fs.Args()
	if command != "spec" && command != "lint" && len(operands) != 0 {
		fs.Usage()
		return fmt.Errorf("expected exactly one command, got %q and %q", command, fs.Arg(0))
	}
	// RenderThroughput walks the run in -bucket steps; reject a step that
	// never advances before any simulation starts.
	if *bucket <= 0 {
		return fmt.Errorf("-bucket %v: must be positive", *bucket)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "stabl: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "stabl: memprofile:", err)
			}
		}()
	}

	cfg := stabl.Config{
		Seed:             *seed,
		Duration:         *duration,
		Validators:       *validators,
		Clients:          *clients,
		RatePerClient:    *rate,
		CommitteeSize:    *committee,
		Flows:            *flows,
		FlowAccounts:     *flowAccts,
		DisableConnLayer: *noConn,
		SimWorkers:       *simWorkers,
		Fault:            stabl.FaultPlan{InjectAt: *inject, RecoverAt: *recover},
	}
	if *overlayTop != "" {
		kind, err := stabl.ParseOverlayKind(*overlayTop)
		if err != nil {
			return err
		}
		cfg.Overlay = stabl.OverlayConfig{Topology: kind}
	}
	report := reportOptions{
		metricsOut:      *metricsOut,
		metricsInterval: *metricsInterval,
		json:            *jsonOut,
		bucket:          *bucket,
		svgDir:          *svgDir,
	}

	switch cmd := command; cmd {
	case "fig1":
		fig, err := stabl.Fig1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(out, stabl.RenderECDF(fig, 25))
		return writeSVG(*svgDir, "fig1.svg", fig.SVG())
	case "fig3a", "fig3b", "fig3c", "fig3d":
		runner := map[string]func(stabl.Config) ([]*stabl.Comparison, error){
			"fig3a": stabl.Fig3a, "fig3b": stabl.Fig3b,
			"fig3c": stabl.Fig3c, "fig3d": stabl.Fig3d,
		}[cmd]
		title := map[string]string{
			"fig3a": "Fig 3a: sensitivity to f=t crashes",
			"fig3b": "Fig 3b: sensitivity to f=t+1 transient failures",
			"fig3c": "Fig 3c: sensitivity to an f=t+1 partition",
			"fig3d": "Fig 3d: sensitivity to the secure client (t+1 endpoints)",
		}[cmd]
		cmps, err := runner(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(out, stabl.RenderFig3(title, cmps))
		return writeSVG(*svgDir, cmd+".svg", stabl.Fig3SVG(title, cmps))
	case "fig4", "fig5", "fig6":
		runner := map[string]func(stabl.Config) ([]*stabl.Comparison, error){
			"fig4": stabl.Fig4, "fig5": stabl.Fig5, "fig6": stabl.Fig6,
		}[cmd]
		cmps, err := runner(cfg)
		if err != nil {
			return err
		}
		for _, cmp := range cmps {
			fmt.Fprint(out, stabl.RenderThroughput(cmp, *bucket))
			fmt.Fprintln(out)
			if err := writeSVG(*svgDir, fmt.Sprintf("%s-%s.svg", cmd, cmp.System), stabl.ThroughputSVG(cmp, 5*time.Second)); err != nil {
				return err
			}
		}
		return nil
	case "fig7":
		radar, err := stabl.Fig7(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Fig 7: sensitivity matrix")
		fmt.Fprint(out, stabl.RenderRadar(radar))
		return nil
	case "recovery":
		for _, f := range []func(stabl.Config) ([]*stabl.Comparison, error){stabl.Fig5, stabl.Fig6} {
			cmps, err := f(cfg)
			if err != nil {
				return err
			}
			fmt.Fprint(out, stabl.RenderRecovery(stabl.RecoveryTimes(cmps)))
		}
		return nil
	case "suite":
		res, err := stabl.RunSuite(stabl.SuiteConfig{
			Base:    cfg,
			Systems: stabl.Systems(),
			Seeds:   []int64{*seed, *seed + 1, *seed + 2},
			Workers: *workers,
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			return res.WriteJSON(out)
		}
		for _, cell := range res.Cells {
			fmt.Fprintln(out, cell)
		}
		return nil
	case "campaign":
		if *configPath == "" {
			return fmt.Errorf("campaign needs -config <campaign-spec.json>, e.g. specs/campaign-crash-sweep.json")
		}
		spec, err := loadSpecFile(*configPath, stabl.ParseCampaignSpec)
		if err != nil {
			return err
		}
		opts := stabl.CampaignOptions{Workers: *workers}
		if !*jsonOut {
			// Live progress goes to stderr so stdout stays a clean,
			// deterministic artifact.
			opts.Progress = func(done, total int, cell *stabl.CampaignCell) {
				fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell)
			}
		}
		var metricsMu sync.Mutex
		var metricsErr error
		if *metricsDir != "" {
			opts.MetricsInterval = *metricsInterval
			opts.Metrics = func(cell stabl.CampaignCoord, rec *stabl.MetricsRecorder) {
				title := fmt.Sprintf("%s %s f=%d seed=%d", cell.System, cell.Fault, cell.Count, cell.Seed)
				err := writeMetrics(*metricsDir, cell.Slug(), rec, title)
				metricsMu.Lock()
				if metricsErr == nil && err != nil {
					metricsErr = err
				}
				metricsMu.Unlock()
			}
		}
		res, err := stabl.RunCampaign(context.Background(), spec, opts)
		if err != nil {
			return err
		}
		if metricsErr != nil {
			return metricsErr
		}
		if cp := res.Checkpoint; cp != nil {
			// Wall time is a property of this machine, not of the
			// measurement, so it goes to stderr with the progress log.
			fmt.Fprintf(os.Stderr, "checkpoint reuse: %d of %d cells served from %d family checkpoint(s), %d full replay(s); ~%s of replay wall time saved\n",
				cp.ForkServed, res.TotalCells, cp.Families, cp.FullReplays,
				cp.WallSaved.Round(time.Millisecond))
		}
		for _, sys := range res.Systems {
			svg := stabl.CampaignHeatmapSVG(res, sys.System)
			if err := writeSVG(*svgDir, "campaign-"+sys.System+".svg", svg); err != nil {
				return err
			}
		}
		if *jsonOut {
			return res.WriteJSON(out)
		}
		return res.WriteText(out)
	case "search":
		sys, err := stabl.SystemByName(*system)
		if err != nil {
			return err
		}
		cfg.System = sys
		opts := stabl.SearchOptions{
			Axis: stabl.SearchAxis{
				Name: *axisName, Lo: *axisLo, Hi: *axisHi, Resolution: *axisRes,
			},
			Threshold: *threshold,
			Shrink:    *shrink,
		}
		if *axisName == stabl.SearchAxisIntensity {
			if *scenName == "" {
				return fmt.Errorf("search -axis intensity needs -scenario <name> (see `stabl scenario -list`)")
			}
			spec, err := stabl.BuiltinScenario(*scenName, *duration)
			if err != nil {
				return err
			}
			opts.Scenario = &spec
			cfg.Fault.Kind = stabl.FaultNone
		} else {
			kind, err := stabl.ParseFaultKind(*fault)
			if err != nil {
				return err
			}
			cfg.Fault.Kind = kind
		}
		opts.Base = cfg
		if !*jsonOut {
			opts.Progress = func(x float64, fail bool, cmp *stabl.Comparison) {
				verdict := "pass"
				if fail {
					verdict = "FAIL"
				}
				fmt.Fprintf(os.Stderr, "probe %s=%g: %s (%s)\n", *axisName, x, verdict, cmp.Score)
			}
		}
		res, err := stabl.RunSearch(opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			return res.WriteJSON(out)
		}
		return res.WriteText(out)
	case "run":
		if *configPath != "" {
			loaded, err := loadSpecFile(*configPath, stabl.LoadExperiment)
			if err != nil {
				return err
			}
			cfg = loaded
		} else {
			sys, err := stabl.SystemByName(*system)
			if err != nil {
				return err
			}
			kind, err := stabl.ParseFaultKind(*fault)
			if err != nil {
				return err
			}
			cfg.System = sys
			cfg.Fault.Kind = kind
		}
		return compareAndReport(out, cfg, "run", report)
	case "scenario":
		if *scenList {
			for _, name := range stabl.BuiltinScenarios() {
				sc, err := stabl.BuiltinScenario(name, 0)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-20s %s\n", name, sc.Description)
			}
			return nil
		}
		if *configPath != "" {
			loaded, err := loadSpecFile(*configPath, stabl.LoadExperiment)
			if err != nil {
				return err
			}
			if loaded.Scenario == nil {
				return fmt.Errorf("scenario: %s has no \"scenario\" block (use the run command for single-fault specs)", *configPath)
			}
			cfg = loaded
		} else {
			if *scenName == "" {
				return fmt.Errorf("scenario needs -scenario <name> (see `stabl scenario -list`) or -config <spec.json>")
			}
			sys, err := stabl.SystemByName(*system)
			if err != nil {
				return err
			}
			spec, err := stabl.BuiltinScenario(*scenName, *duration)
			if err != nil {
				return err
			}
			sc, err := spec.Build()
			if err != nil {
				return err
			}
			cfg.System = sys
			cfg.Fault = stabl.FaultPlan{}
			cfg.Scenario = sc
		}
		return compareAndReport(out, cfg, "scenario", report)
	case "lint":
		if *scenList {
			for _, a := range lint.All() {
				fmt.Fprintf(out, "%-20s %s\n", a.Name, a.Doc)
			}
			return nil
		}
		selected, err := lint.Select(*analyzers)
		if err != nil {
			return err
		}
		prog, err := lint.Load(operands)
		if err != nil {
			return err
		}
		// -json prints every finding (suppressed ones flagged) as a stable
		// JSON array; text mode prints only the unsuppressed ones. Exit
		// status counts unsuppressed findings either way.
		var diags []lint.Diagnostic
		if *jsonOut {
			diags = lint.RunAll(prog, selected)
			if err := lint.WriteJSON(out, diags); err != nil {
				return err
			}
		} else {
			diags = lint.Run(prog, selected)
			for _, d := range diags {
				fmt.Fprintln(out, d)
			}
		}
		// Same non-zero-exit convention as `stabl spec -validate`: clean
		// trees exit 0, anything unsuppressed fails the command (and with
		// it, make verify).
		if n := lint.Exitable(diags); n > 0 {
			return fmt.Errorf("lint: %d issue(s) in %d package(s)", n, len(prog.Pkgs))
		}
		return nil
	case "spec":
		if !*validate {
			return fmt.Errorf("spec needs -validate, e.g. `stabl spec -validate 'specs/*.json'`")
		}
		patterns := operands
		if len(patterns) == 0 {
			patterns = []string{"specs/*.json", "specs/scenarios/*.json"}
		}
		var paths []string
		for _, pat := range patterns {
			matches, err := filepath.Glob(pat)
			if err != nil {
				return fmt.Errorf("spec: bad glob %q: %w", pat, err)
			}
			paths = append(paths, matches...)
		}
		if len(paths) == 0 {
			return fmt.Errorf("spec: no files match %q", patterns)
		}
		failed := 0
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			kind, err := stabl.ValidateSpec(f)
			f.Close()
			if err != nil {
				failed++
				fmt.Fprintf(out, "%-44s INVALID: %v\n", path, err)
				continue
			}
			fmt.Fprintf(out, "%-44s ok (%s)\n", path, kind)
		}
		if failed > 0 {
			return fmt.Errorf("spec: %d of %d files invalid", failed, len(paths))
		}
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// loadSpecFile parses the spec file at path with parse — LoadExperiment for
// the run and scenario commands, ParseCampaignSpec for campaign.
func loadSpecFile[T any](path string, parse func(io.Reader) (T, error)) (spec T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return spec, err
	}
	defer f.Close() // read-only: nothing to lose on a failed close
	return parse(f)
}

// reportOptions are the output flags the run and scenario commands share.
type reportOptions struct {
	metricsOut      string
	metricsInterval time.Duration
	json            bool
	bucket          time.Duration
	svgDir          string
}

// compareAndReport is the shared tail of the run and scenario commands: run
// the baseline/altered pair for cfg, dump the altered run's metrics when
// asked, and print the comparison as JSON or as the score line, the overlay
// counters and the throughput table (plus its SVG). verb prefixes the
// artifact names; the scenario command names runs after the scenario, the
// run command after the fault kind.
func compareAndReport(out io.Writer, cfg stabl.Config, verb string, o reportOptions) error {
	var rec *stabl.MetricsRecorder
	if o.metricsOut != "" {
		rec = stabl.NewMetricsRecorder(o.metricsInterval)
		cfg.Metrics = rec
	}
	cmp, err := stabl.Compare(cfg)
	if err != nil {
		return err
	}
	label, under := fmt.Sprint(cmp.Fault.Kind), ""
	if verb == "scenario" {
		label, under = cmp.Scenario, "scenario "
	}
	base := fmt.Sprintf("%s-%s-%s", verb, cmp.System, label)
	if rec != nil {
		title := fmt.Sprintf("%s under %s%s", cmp.System, under, label)
		if err := writeMetrics(o.metricsOut, base, rec, title); err != nil {
			return err
		}
	}
	if o.json {
		return stabl.NewReport(cmp).WriteJSON(out)
	}
	fmt.Fprintln(out, cmp)
	if cfg.Overlay.Enabled() {
		writeOverlay(out, cmp)
	}
	fmt.Fprint(out, stabl.RenderThroughput(cmp, o.bucket))
	return writeSVG(o.svgDir, base+".svg", stabl.ThroughputSVG(cmp, 5*time.Second))
}

// writeOverlay prints the overlay routers' counters, one line per run of the
// comparison: what the gossip cost (sends per origin, relays, the share of
// envelopes that were duplicates) and how often the stall model held a relay
// back — skipped one peer, or found a whole bucket stalled and dropped it.
func writeOverlay(out io.Writer, cmp *stabl.Comparison) {
	for _, run := range []struct {
		name string
		res  *stabl.RunResult
	}{{"baseline", cmp.Baseline}, {"altered", cmp.Altered}} {
		ov := run.res.Overlay
		dupRatio := 0.0
		if envelopes := ov.OriginSends + ov.Relayed; envelopes > 0 {
			dupRatio = float64(ov.Duplicates) / float64(envelopes)
		}
		fmt.Fprintf(out, "overlay %-8s origins=%d sends/origin=%.1f relayed=%d duplicates=%d (%.3f of envelopes) stall-skips=%d stall-drops=%d\n",
			run.name, ov.Origins, ov.SendsPerBroadcast(), ov.Relayed, ov.Duplicates, dupRatio, ov.StallSkips, ov.StallDrops)
	}
}

// writeMetrics dumps one recorded run into dir as <base>.metrics.jsonl,
// <base>.metrics.csv and <base>.timeline.svg.
func writeMetrics(dir, base string, rec *stabl.MetricsRecorder, title string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var jsonl, csv bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		return err
	}
	if err := rec.WriteCSV(&csv); err != nil {
		return err
	}
	files := []struct {
		name string
		data []byte
	}{
		{base + ".metrics.jsonl", jsonl.Bytes()},
		{base + ".metrics.csv", csv.Bytes()},
		{base + ".timeline.svg", []byte(stabl.TimelineSVG(rec, title))},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeSVG writes an SVG document into dir (no-op when dir is empty).
func writeSVG(dir, name, svg string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(svg), 0o644)
}
