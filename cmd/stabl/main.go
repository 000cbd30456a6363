// Command stabl runs STABL experiments from the command line and prints the
// paper's tables and figures as text.
//
// Usage:
//
//	stabl <command> [flags] [operands]
//
// `stabl -help` lists the commands (the paper's figures fig1…fig7 and
// recovery; suite, run, scenario, campaign and search; spec and lint) and
// `stabl <command> -help` the flags that command reads; any other flag is an
// error. The deployment flags (-seed, -validators, -inject, ...) and
// -system/-fault fill the same experiment spec a -config file decodes into,
// and a flag given beside -config overrides that field of the file. run and
// scenario fail, after printing their report, when a run broke the integrity
// monitor's agreement or hash-chain checks. With -metrics-out (run, scenario)
// or -metrics-dir (campaign), each run also dumps its virtual-time
// instrumentation — JSONL and CSV interval metrics plus an SVG timeline of
// latency, commit rate, fault and scenario phase markers and consensus
// events. -cpuprofile and -memprofile write pprof profiles of any command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"stabl"
	"stabl/internal/core"
	"stabl/internal/lint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stabl:", err)
		os.Exit(1)
	}
}

// command is one verb of the CLI: the catalog flags it reads and what it
// does with them. A command that reads the deployment runs the Config its
// flags and -config describe.
type command struct {
	name, summary string
	operands      string // " [usage]" of its positional operands; empty when it takes none
	flags         string // space-separated catalog names; every command also takes the profile flags
	run           func(c *cli, cfg stabl.Config) error
}

// Flag groups of the commands table. A scenario's timeline replaces the
// fault window, so the scenario command reads sizing but not -inject/-recover.
const (
	sizing     = "seed duration validators clients rate committee flows flow-accounts no-conn overlay sim-workers"
	deployment = sizing + " inject recover"
	report     = "json svg bucket metrics-out metrics-interval"
)

var commands = []command{
	{"fig1", "Fig 1: Aptos latency eCDFs, baseline vs f=t crashes", "", deployment + " svg", fig1},
	{"fig3a", "Fig 3a: sensitivity to f=t crashes", "", deployment + " svg", plot(stabl.Fig3a, sensitivity)},
	{"fig3b", "Fig 3b: sensitivity to f=t+1 transient failures", "", deployment + " svg", plot(stabl.Fig3b, sensitivity)},
	{"fig3c", "Fig 3c: sensitivity to an f=t+1 partition", "", deployment + " svg", plot(stabl.Fig3c, sensitivity)},
	{"fig3d", "Fig 3d: sensitivity to the secure client (t+1 endpoints)", "", deployment + " svg", plot(stabl.Fig3d, sensitivity)},
	{"fig4", "Fig 4: throughput over time under f=t crashes", "", deployment + " svg bucket", plot(stabl.Fig4, throughput)},
	{"fig5", "Fig 5: throughput over time under f=t+1 transient failures", "", deployment + " svg bucket", plot(stabl.Fig5, throughput)},
	{"fig6", "Fig 6: throughput over time under an f=t+1 partition", "", deployment + " svg bucket", plot(stabl.Fig6, throughput)},
	{"fig7", "Fig 7: the full sensitivity matrix", "", deployment, fig7},
	{"recovery", "recovery times after transient failures and partitions", "", deployment, recovery},
	{"suite", "multi-seed sweep over all systems and faults", "", deployment + " json workers", suite},
	{"run", "one experiment: -system under -fault, or a -config spec", "", deployment + " system fault config " + report, compareAndReport},
	{"scenario", "one composed fault scenario: -scenario <builtin> or a -config spec", "", sizing + " system scenario config list " + report, runScenario},
	{"spec", "validate experiment, scenario and campaign spec files", " [glob...]", "", validateSpecs},
	{"campaign", "chaos campaign over the fault-space grid of a -config spec", "", "config workers json svg metrics-dir metrics-interval", campaign},
	{"search", "bisect one fault -axis to the tolerance boundary of -system", "", deployment + " system fault scenario json axis lo hi resolution threshold shrink", search},
	{"lint", "determinism static analysis", " [packages]", "list analyzers json", lintPackages},
}

// cli is one invocation: the command's flag set and every catalog value.
// The deployment and system/fault flags write into spec.
type cli struct {
	cmd  *command
	args []string // the arguments after the verb
	out  io.Writer
	fs   *flag.FlagSet

	spec                                                core.Spec
	configPath, scenario, analyzers, svgDir, metricsOut string
	metricsDir, cpuProfile, memProfile                  string
	jsonOut, list                                       bool
	bucket, metricsInterval                             time.Duration
	workers                                             int
	bisect                                              stabl.CampaignBisect
}

// catalog defines every flag of the CLI, bound to c. A command's flag set
// holds the subset it names; the rest keep their defaults.
func (c *cli) catalog() *flag.FlagSet {
	fs := flag.NewFlagSet("stabl", flag.ContinueOnError)
	s := &c.spec
	secondsVar := func(p *float64, name string, def time.Duration, usage string) {
		*p = def.Seconds()
		fs.Var((*seconds)(p), name, usage)
	}
	fs.Int64Var(&s.Seed, "seed", 42, "simulation seed")
	secondsVar(&s.DurationSec, "duration", 400*time.Second, "virtual experiment duration")
	fs.IntVar(&s.Validators, "validators", 10, "number of blockchain nodes")
	fs.IntVar(&s.Clients, "clients", 5, "number of load clients")
	fs.Float64Var(&s.RatePerClient, "rate", 40, "per-client send rate (tx/s)")
	fs.IntVar(&s.CommitteeSize, "committee", 0, "sortition committee size on systems that support it (Algorand); 0 = classic full-quorum mode")
	fs.IntVar(&s.Flows, "flows", 0, "aggregate the client population into this many flow generators (0 = one event loop per client)")
	fs.IntVar(&s.FlowAccounts, "flow-accounts", 0, "modeled accounts per flow generator (0 = library default; only with -flows)")
	fs.BoolVar(&s.DisableConnLayer, "no-conn", false, "skip the O(clients*validators) managed connection layer (recommended for runs past ~100 validators)")
	fs.StringVar(&s.Overlay.Topology, "overlay", "", "route validator gossip over a structured overlay: kadcast|regular|ring (empty = legacy full mesh)")
	fs.IntVar(&s.SimWorkers, "sim-workers", 0, "run the simulation on the conservative parallel kernel with this many partition queues (0 = sequential; outputs are byte-identical either way)")
	secondsVar(&s.Fault.InjectSec, "inject", 133*time.Second, "fault injection time")
	secondsVar(&s.Fault.RecoverSec, "recover", 266*time.Second, "fault recovery time")
	fs.StringVar(&s.System, "system", "Redbelly", "system under test: Algorand|Aptos|Avalanche|Redbelly|Solana")
	fs.StringVar(&s.Fault.Kind, "fault", "none", "fault: none|crash|transient|partition|secure-client|slow")
	fs.StringVar(&c.scenario, "scenario", "", "canned scenario name (see `stabl scenario -list`)")
	fs.StringVar(&c.configPath, "config", "", "JSON spec file: an experiment spec (run, scenario), whose fields the flags given beside it override, or a campaign spec (campaign)")
	fs.BoolVar(&c.list, "list", false, "list the canned scenarios (scenario) or the analyzers (lint) and exit")
	fs.StringVar(&c.analyzers, "analyzers", "", "comma-separated analyzer names (default: all)")
	fs.BoolVar(&c.jsonOut, "json", false, "print machine-readable JSON instead of text")
	fs.StringVar(&c.svgDir, "svg", "", "also write figures as SVG files into this directory")
	fs.DurationVar(&c.bucket, "bucket", 20*time.Second, "throughput rendering bucket")
	fs.IntVar(&c.workers, "workers", 0, "concurrent runs (0 = GOMAXPROCS)")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the altered run's metrics (JSONL, CSV, SVG timeline) into this directory")
	fs.StringVar(&c.metricsDir, "metrics-dir", "", "write per-cell metrics dumps and timelines into this directory")
	fs.DurationVar(&c.metricsInterval, "metrics-interval", 5*time.Second, "aggregation interval for -metrics-out and -metrics-dir")
	b := &c.bisect
	fs.StringVar(&b.Axis, "axis", "count", "swept axis: count|slowby|intensity")
	fs.Float64Var(&b.Lo, "lo", 1, "low end of the searched range (expected to pass)")
	fs.Float64Var(&b.Hi, "hi", 5, "high end of the searched range")
	fs.Float64Var(&b.Resolution, "resolution", 0, "bracket resolution for non-integer axes (0 = range/64)")
	fs.Float64Var(&b.Threshold, "threshold", 0, "a finite score at or above this also fails (0 = only liveness loss)")
	fs.BoolVar(&b.Shrink, "shrink", false, "delta-debug the failing scenario at the boundary to a minimal spec (intensity axis)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the command to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write an allocation profile to this file when the command finishes")
	return fs
}

// seconds is a duration flag held the way a spec holds it, in float seconds.
type seconds float64

func (s *seconds) String() string { return time.Duration(float64(*s) * float64(time.Second)).String() }

func (s *seconds) Set(v string) error {
	d, err := time.ParseDuration(v)
	if err != nil {
		return err
	}
	f := d.Seconds()
	if time.Duration(f*float64(time.Second)) != d {
		f = math.Nextafter(f, 2*f) // Spec.Config truncates to the nanosecond
	}
	*s = seconds(f)
	return nil
}

func run(args []string, out io.Writer) error {
	c, err := parse(args, out)
	if err != nil {
		return err
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
			if err == nil {
				runtime.GC() // materialize the final live-heap picture
				err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "stabl: memprofile:", err)
			}
		}()
	}
	var cfg stabl.Config
	if c.fs.Lookup("seed") != nil {
		if cfg, err = c.experiment(); err != nil {
			return err
		}
	}
	return c.cmd.run(c, cfg)
}

// parse resolves args to a command and fills a cli from that command's
// flags. It runs and opens nothing.
func parse(args []string, out io.Writer) (*cli, error) {
	i := slices.IndexFunc(commands, func(cmd command) bool { return len(args) > 0 && cmd.name == args[0] })
	if i < 0 {
		fmt.Fprintf(out, "usage: stabl <command> [flags] [operands]\n\ncommands:\n")
		for _, cmd := range commands {
			fmt.Fprintf(out, "  %-9s %s\n", cmd.name, cmd.summary)
		}
		fmt.Fprintf(out, "\n`stabl <command> -help` lists the flags a command reads.\n")
		switch {
		case len(args) == 0:
			return nil, errors.New("expected a command")
		case slices.Contains([]string{"-h", "-help", "--h", "--help"}, args[0]):
			return nil, flag.ErrHelp
		case strings.HasPrefix(args[0], "-"):
			return nil, fmt.Errorf("flags follow the command (stabl <command> [flags]), got %q first", args[0])
		}
		return nil, fmt.Errorf("unknown command %q", args[0])
	}
	cmd := &commands[i]
	c := &cli{cmd: cmd, args: args[1:], out: out, fs: flag.NewFlagSet(cmd.name, flag.ContinueOnError)}
	all := c.catalog()
	for _, name := range strings.Fields(cmd.flags + " cpuprofile memprofile") {
		f := all.Lookup(name)
		c.fs.Var(f.Value, f.Name, f.Usage)
	}
	c.fs.SetOutput(out)
	c.fs.Usage = func() {
		fmt.Fprintf(out, "usage: stabl %s [flags]%s\n\n%s\n\nflags:\n", cmd.name, cmd.operands, cmd.summary)
		c.fs.PrintDefaults()
	}
	if err := c.fs.Parse(c.args); err != nil {
		return nil, err
	}
	if cmd.operands == "" && c.fs.NArg() != 0 {
		c.fs.Usage()
		return nil, fmt.Errorf("expected exactly one command, got %q and %q", cmd.name, c.fs.Arg(0))
	}
	// core reads a zero count or instant as "use the default", so an
	// explicit 0 would silently run a different experiment; RenderThroughput
	// walks the run in -bucket steps, so a step that never advances is
	// refused before any simulation starts.
	zero := map[string]bool{
		"validators": c.spec.Validators == 0, "clients": c.spec.Clients == 0, "rate": c.spec.RatePerClient == 0,
		"duration": c.spec.DurationSec == 0, "inject": c.spec.Fault.InjectSec == 0, "recover": c.spec.Fault.RecoverSec == 0,
	}
	var err error
	c.fs.Visit(func(f *flag.Flag) {
		if zero[f.Name] && err == nil {
			err = fmt.Errorf("-%s 0: must be non-zero (0 would mean the default)", f.Name)
		}
	})
	if c.bucket <= 0 { // the default is positive: -bucket was set
		err = fmt.Errorf("-bucket %v: must be positive", c.bucket)
	}
	return c, err
}

// experiment is the Config every simulating command runs: the -config file
// when one is given, with every flag set on the command line written over
// its field, and for the scenario command the -scenario builtin laid out
// over the run. The figure and suite runners replace System and Fault.Kind.
func (c *cli) experiment() (stabl.Config, error) {
	if c.configPath != "" {
		spec, err := loadSpecFile(c.configPath, core.ParseSpec)
		if err != nil {
			return stabl.Config{}, err
		}
		c.spec = spec
		_ = c.fs.Parse(c.args) // re-applies exactly the flags set; these args parsed once already
	}
	if c.cmd.name == "scenario" && c.scenario != "" {
		sc, err := stabl.BuiltinScenario(c.scenario, time.Duration(c.spec.DurationSec*float64(time.Second)))
		if err != nil {
			return stabl.Config{}, err
		}
		c.spec.Scenario, c.spec.Fault = &sc, core.FaultSpec{}
	}
	return c.spec.Config(stabl.SystemByName)
}

func fig1(c *cli, cfg stabl.Config) error {
	fig, err := stabl.Fig1(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, stabl.RenderECDF(fig, 25))
	return writeFiles(c.svgDir, "fig1.svg", fig.SVG())
}

type figure = func(stabl.Config) ([]*stabl.Comparison, error)

// plot runs a figure's comparisons and hands them to draw.
func plot(runner figure, draw func(c *cli, cmps []*stabl.Comparison) error) func(*cli, stabl.Config) error {
	return func(c *cli, cfg stabl.Config) error {
		cmps, err := runner(cfg)
		if err != nil {
			return err
		}
		return draw(c, cmps)
	}
}

// sensitivity draws a Fig 3 panel, titled by its command's summary: one
// score per chain under the panel's fault.
func sensitivity(c *cli, cmps []*stabl.Comparison) error {
	fmt.Fprint(c.out, stabl.RenderFig3(c.cmd.summary, cmps))
	return writeFiles(c.svgDir, c.cmd.name+".svg", stabl.Fig3SVG(c.cmd.summary, cmps))
}

// throughput draws one of Figs 4–6: each chain's throughput over time.
func throughput(c *cli, cmps []*stabl.Comparison) error {
	for _, cmp := range cmps {
		fmt.Fprintln(c.out, stabl.RenderThroughput(cmp, c.bucket))
		if err := writeFiles(c.svgDir, fmt.Sprintf("%s-%s.svg", c.cmd.name, cmp.System), stabl.ThroughputSVG(cmp, 5*time.Second)); err != nil {
			return err
		}
	}
	return nil
}

func fig7(c *cli, cfg stabl.Config) error {
	radar, err := stabl.Fig7(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, "Fig 7: sensitivity matrix\n", stabl.RenderRadar(radar))
	return nil
}

func recovery(c *cli, cfg stabl.Config) error {
	for _, runner := range []figure{stabl.Fig5, stabl.Fig6} {
		cmps, err := runner(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(c.out, stabl.RenderRecovery(stabl.RecoveryTimes(cmps)))
	}
	return nil
}

// preset is the campaign the suite and search verbs run: the flags'
// deployment as its template, swept over the given systems and seeds, with
// -inject's instant and the outage up to -recover.
func (c *cli) preset(systems []string, seeds ...int64) stabl.CampaignSpec {
	f := c.spec.Fault
	return stabl.CampaignSpec{Systems: systems, Seeds: seeds, Base: c.spec,
		InjectSecs: []float64{f.InjectSec}, OutageSecs: []float64{f.RecoverSec - f.InjectSec}}
}

// suite runs the paper suite over the five chains and three seeds from
// -seed, and prints every seed's score, then each point's min/median/max.
func suite(c *cli, cfg stabl.Config) error {
	var systems []string
	for _, sys := range stabl.Systems() {
		systems = append(systems, sys.Name())
	}
	spec := c.preset(systems, cfg.Seed, cfg.Seed+1, cfg.Seed+2)
	res, err := stabl.RunPaperSuite(context.Background(), spec, stabl.CampaignOptions{Workers: c.workers})
	if err != nil {
		return err
	}
	if c.jsonOut {
		return res.WriteJSON(c.out)
	}
	for _, cell := range res.Cells {
		fmt.Fprintln(c.out, cell)
	}
	for _, p := range res.Points {
		fmt.Fprintln(c.out, p)
	}
	return nil
}

func runScenario(c *cli, cfg stabl.Config) error {
	if c.list {
		for _, name := range stabl.BuiltinScenarios() {
			sc, _ := stabl.BuiltinScenario(name, 0) // every listed name resolves
			fmt.Fprintf(c.out, "%-20s %s\n", name, sc.Description)
		}
		return nil
	}
	if cfg.Scenario == nil {
		return fmt.Errorf("scenario needs -scenario <name> (see `stabl scenario -list`) or -config <spec.json> with a \"scenario\" block")
	}
	return compareAndReport(c, cfg)
}

func campaign(c *cli, _ stabl.Config) error {
	if c.configPath == "" {
		return fmt.Errorf("campaign needs -config <campaign-spec.json>, e.g. specs/campaign-crash-sweep.json")
	}
	spec, err := loadSpecFile(c.configPath, stabl.ParseCampaignSpec)
	if err != nil {
		return err
	}
	opts := stabl.CampaignOptions{Workers: c.workers}
	if !c.jsonOut {
		// Live progress goes to stderr so stdout stays a clean,
		// deterministic artifact.
		opts.Progress = func(done, total int, cell *stabl.CampaignCell) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell)
		}
	}
	var metricsMu sync.Mutex
	var metricsErr error
	if c.metricsDir != "" {
		opts.MetricsInterval = c.metricsInterval
		opts.Metrics = func(cell stabl.CampaignCoord, rec *stabl.MetricsRecorder) {
			title := fmt.Sprintf("%s %s f=%d seed=%d", cell.System, cell.Fault, cell.Count, cell.Seed)
			err := writeMetrics(c.metricsDir, cell.Slug(), rec, title)
			metricsMu.Lock()
			metricsErr = errors.Join(metricsErr, err)
			metricsMu.Unlock()
		}
	}
	res, err := stabl.RunCampaign(context.Background(), spec, opts)
	if err = errors.Join(err, metricsErr); err != nil {
		return err
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
		if err := writeFiles(c.svgDir, "campaign-"+sys.System+".svg", svg); err != nil {
			return err
		}
	}
	if c.jsonOut {
		return res.WriteJSON(c.out)
	}
	return res.WriteText(c.out)
}

// search bisects -system's -fault (or -scenario) along -axis: a one-family
// campaign in mode bisect. The fault's count is the paper's unless -axis
// count sweeps it.
func search(c *cli, cfg stabl.Config) error {
	spec := c.preset([]string{cfg.System.Name()}, cfg.Seed)
	spec.Mode, spec.Bisect = "bisect", &c.bisect
	spec.CountDeltas = []int{core.PaperFaultCount(cfg.Fault.Kind, 0)} // relative to t
	if c.scenario != "" {
		sc, err := stabl.BuiltinScenario(c.scenario, cfg.Duration)
		if err != nil {
			return err
		}
		spec.Scenarios = []stabl.ScenarioSpec{sc}
	}
	if c.scenario == "" || cfg.Fault.Kind != stabl.FaultNone {
		spec.Faults = []string{c.spec.Fault.Kind}
	}
	var opts stabl.CampaignOptions
	if !c.jsonOut {
		opts.Progress = func(_, _ int, cell *stabl.CampaignCell) { fmt.Fprintf(os.Stderr, "probe %s\n", cell) }
	}
	res, err := stabl.RunCampaign(context.Background(), spec, opts)
	if err != nil {
		return err
	}
	if c.jsonOut {
		err = res.WriteJSON(c.out)
	} else {
		err = res.WriteText(c.out)
	}
	if b := res.Bisections[0]; err == nil && b.Error != "" {
		err = fmt.Errorf("search: %s", b.Error)
	}
	return err
}

func lintPackages(c *cli, _ stabl.Config) error {
	if c.list {
		for _, a := range lint.All() {
			fmt.Fprintf(c.out, "%-20s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	selected, err := lint.Select(c.analyzers)
	if err != nil {
		return err
	}
	prog, err := lint.Load(c.fs.Args())
	if err != nil {
		return err
	}
	// -json prints every finding (suppressed ones flagged) as a stable
	// JSON array; text mode prints only the unsuppressed ones. Exit
	// status counts unsuppressed findings either way.
	var diags []lint.Diagnostic
	if c.jsonOut {
		diags = lint.RunAll(prog, selected)
		if err := lint.WriteJSON(c.out, diags); err != nil {
			return err
		}
	} else {
		diags = lint.Run(prog, selected)
		for _, d := range diags {
			fmt.Fprintln(c.out, d)
		}
	}
	// Same non-zero-exit convention as `stabl spec`: clean trees exit 0,
	// anything unsuppressed fails the command (and with it, make verify).
	if n := lint.Exitable(diags); n > 0 {
		return fmt.Errorf("lint: %d issue(s) in %d package(s)", n, len(prog.Pkgs))
	}
	return nil
}

func validateSpecs(c *cli, _ stabl.Config) error {
	patterns := c.fs.Args()
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
		kind, err := loadSpecFile(path, stabl.ValidateSpec)
		verdict := "ok (" + kind + ")"
		if err != nil {
			failed, verdict = failed+1, "INVALID: "+err.Error()
		}
		fmt.Fprintf(c.out, "%-44s %s\n", path, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("spec: %d of %d files invalid", failed, len(paths))
	}
	return nil
}

// loadSpecFile parses the spec file at path with parse — core.ParseSpec for
// run and scenario, ParseCampaignSpec for campaign, ValidateSpec for spec.
func loadSpecFile[T any](path string, parse func(io.Reader) (T, error)) (spec T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return spec, err
	}
	defer f.Close() // read-only: nothing to lose on a failed close
	return parse(f)
}

// compareAndReport is the run command and the shared tail of scenario: run
// the baseline/altered pair for cfg, dump the altered run's metrics when
// asked, and print the comparison as JSON or as the score line, the overlay
// counters and the throughput table (plus its SVG). The command prefixes the
// artifact names; scenario names runs after the scenario, run after the
// fault kind. A run that broke integrity fails the command once its report
// is out.
func compareAndReport(c *cli, cfg stabl.Config) error {
	var rec *stabl.MetricsRecorder
	if c.metricsOut != "" {
		rec = stabl.NewMetricsRecorder(c.metricsInterval)
		cfg.Metrics = rec
	}
	cmp, err := stabl.Compare(cfg)
	if err != nil {
		return err
	}
	label, under := fmt.Sprint(cmp.Fault.Kind), ""
	if c.cmd.name == "scenario" {
		label, under = cmp.Scenario, "scenario "
	}
	base := fmt.Sprintf("%s-%s-%s", c.cmd.name, cmp.System, label)
	if rec != nil {
		title := fmt.Sprintf("%s under %s%s", cmp.System, under, label)
		if err := writeMetrics(c.metricsOut, base, rec, title); err != nil {
			return err
		}
	}
	if c.jsonOut {
		err = stabl.NewReport(cmp).WriteJSON(c.out)
	} else {
		fmt.Fprintln(c.out, cmp)
		if cfg.Overlay.Enabled() {
			writeOverlay(c.out, cmp)
		}
		fmt.Fprint(c.out, stabl.RenderThroughput(cmp, c.bucket))
		err = writeFiles(c.svgDir, base+".svg", stabl.ThroughputSVG(cmp, 5*time.Second))
	}
	var broken []string
	for i, res := range []*stabl.RunResult{cmp.Baseline, cmp.Altered} {
		for _, e := range res.IntegrityErrors {
			broken = append(broken, runNames[i]+": "+e)
		}
	}
	if err == nil && len(broken) > 0 {
		err = fmt.Errorf("%s %s: %d integrity violation(s):\n  %s", cmp.System, cmp.Fault.Kind, len(broken), strings.Join(broken, "\n  "))
	}
	return err
}

// runNames name a comparison's baseline and altered runs in reports.
var runNames = [2]string{"baseline", "altered"}

// writeOverlay prints the overlay routers' counters, one line per run of the
// comparison: what the gossip cost (sends per origin, relays, the share of
// envelopes that were duplicates) and how often the stall model held a relay
// back — skipped one peer, or found a whole bucket stalled and dropped it.
func writeOverlay(out io.Writer, cmp *stabl.Comparison) {
	for i, res := range []*stabl.RunResult{cmp.Baseline, cmp.Altered} {
		ov := res.Overlay
		dupRatio := 0.0
		if envelopes := ov.OriginSends + ov.Relayed; envelopes > 0 {
			dupRatio = float64(ov.Duplicates) / float64(envelopes)
		}
		fmt.Fprintf(out, "overlay %-8s origins=%d sends/origin=%.1f relayed=%d duplicates=%d (%.3f of envelopes) stall-skips=%d stall-drops=%d\n",
			runNames[i], ov.Origins, ov.SendsPerBroadcast(), ov.Relayed, ov.Duplicates, dupRatio, ov.StallSkips, ov.StallDrops)
	}
}

// writeMetrics dumps one recorded run into dir as <base>.metrics.jsonl,
// <base>.metrics.csv and <base>.timeline.svg.
func writeMetrics(dir, base string, rec *stabl.MetricsRecorder, title string) error {
	var jsonl, csv strings.Builder
	if err := errors.Join(rec.WriteJSONL(&jsonl), rec.WriteCSV(&csv)); err != nil {
		return err
	}
	return writeFiles(dir, base+".metrics.jsonl", jsonl.String(), base+".metrics.csv", csv.String(),
		base+".timeline.svg", stabl.TimelineSVG(rec, title))
}

// writeFiles creates dir and writes each name, content pair into it; with
// dir empty (no -svg) it writes nothing.
func writeFiles(dir string, pairs ...string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < len(pairs); i += 2 {
		if err := os.WriteFile(filepath.Join(dir, pairs[i]), []byte(pairs[i+1]), 0o644); err != nil {
			return err
		}
	}
	return nil
}
