package stabl

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stabl/internal/core"
)

// update rewrites the golden files from this run instead of comparing
// against them: go test -run TestGolden -update .
var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from this run")

// hostOnly names the RunResult fields that describe how the host executed a
// run, not what it measured: the only fields allowed to differ between
// kernels, and the only ones no golden holds.
var hostOnly = []string{"SimWorkers", "SimWindows", "SimBusyWall", "SimCriticalWall"}

// renderComparison is the canonical golden text of a comparison: one
// "<Go field path> <value>" per line, floats in their shortest exact form,
// then both runs.
func renderComparison(cmp *Comparison) string {
	var b strings.Builder
	s := cmp.Score
	fmt.Fprintf(&b, "System %s\nEnvironment %s\n", cmp.System, cmp.Environment())
	fmt.Fprintf(&b, "Score.Value %v\nScore.Infinite %t\nScore.Benefit %t\nScore.Baseline %v\nScore.Altered %v\n",
		s.Value, s.Infinite, s.Benefit, s.Baseline, s.Altered)
	fmt.Fprintf(&b, "InjectAt %v\nRecoverAt %v\nRecovered %t\nRecoveryTime %v\n",
		cmp.InjectAt, cmp.RecoverAt, cmp.Recovered, cmp.RecoveryTime)
	return b.String() + renderRun("baseline", cmp.Baseline) + renderRun("altered", cmp.Altered)
}

// renderRun is the canonical text of one run, every key prefixed with run.
// The sample slices render as their length and a digest of their exact
// values in collection order; each integrity entry is a line of its own.
func renderRun(run string, r *RunResult) string {
	var b strings.Builder
	line := func(key string, v any) { fmt.Fprintf(&b, "%s.%s %v\n", run, key, v) }
	line("UniqueCommits", r.UniqueCommits)
	line("Submitted", r.Submitted)
	line("Pending", r.Pending)
	line("LastCommitAt", r.LastCommitAt)
	line("MaxHeight", r.MaxHeight)
	line("LivenessLost", r.LivenessLost)
	line("Events", r.Events)
	for _, counters := range []struct {
		name string
		v    reflect.Value
	}{{"NetStats", reflect.ValueOf(r.NetStats)}, {"Overlay", reflect.ValueOf(r.Overlay)}} {
		for i := range counters.v.NumField() {
			line(counters.name+"."+counters.v.Type().Field(i).Name, counters.v.Field(i))
		}
	}
	line("FaultyNodes", r.FaultyNodes)
	line("Reads", r.Reads)
	line("ReadMismatches", r.ReadMismatches)
	line("ReadDivergences", r.ReadDivergences)
	line("Latencies", digest(r.Latencies))
	line("ReadLatencies", digest(r.ReadLatencies))
	line("Throughput.Bucket", r.Throughput.Bucket)
	line("Throughput.Counts", digest(r.Throughput.Counts))
	line("IntegrityErrors", len(r.IntegrityErrors))
	for i, e := range r.IntegrityErrors {
		line(fmt.Sprintf("IntegrityErrors[%d]", i), e)
	}
	return b.String()
}

// digest is a slice's length and the first 16 hex digits of the SHA-256 of
// its values, exact and in order.
func digest[T any](vs []T) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%v\n", v)
	}
	return fmt.Sprintf("n=%d sha256=%s", len(vs), hex.EncodeToString(h.Sum(nil))[:16])
}

// sameRender fails t at the first line where got differs from want.
func sameRender(t *testing.T, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of text>"
	}
	t.Errorf("%s, line %d: got %q, want %q", what, i+1, line(g), line(w))
}

// goldenRow is one pinned seed-42 configuration, rendered to
// testdata/golden/<name>.txt. A fault-free config renders as one run, any
// other as a comparison. Each of workers is a SimWorkers count whose render
// must equal the sequential kernel's byte for byte.
type goldenRow struct {
	name    string
	config  func() (Config, error)
	workers []int
}

func goldenRows() []goldenRow {
	const d = 120 * time.Second
	crash := func(system, overlay string) func() (Config, error) {
		return func() (Config, error) {
			sys, err := SystemByName(system)
			return Config{
				System: sys, Seed: 42, Duration: d, Overlay: OverlayConfig{Topology: overlay},
				Fault: FaultPlan{Kind: FaultCrash, InjectAt: 40 * time.Second, RecoverAt: 80 * time.Second},
			}, err
		}
	}
	scenario := func(name, system, overlay string) func() (Config, error) {
		return func() (Config, error) {
			sys, err := SystemByName(system)
			if err != nil {
				return Config{}, err
			}
			spec, err := BuiltinScenario(name, d)
			if err != nil {
				return Config{}, err
			}
			sc, err := spec.Build()
			return Config{System: sys, Seed: 42, Duration: d, Overlay: OverlayConfig{Topology: overlay}, Scenario: sc}, err
		}
	}
	parallel := []int{1, 2, 4}
	var rows []goldenRow
	for _, sys := range Systems() {
		rows = append(rows,
			goldenRow{"crash-" + sys.Name(), crash(sys.Name(), ""), parallel},
			goldenRow{"kadcast-crash-" + sys.Name(), crash(sys.Name(), "kadcast"), parallel})
	}
	for _, sys := range []string{"Redbelly", "Algorand"} {
		rows = append(rows, goldenRow{"eclipse-" + sys, scenario("eclipse", sys, "kadcast"), nil})
		for _, sc := range []string{"cascade", "flap", "lossy-wan"} {
			rows = append(rows, goldenRow{sc + "-" + sys, scenario(sc, sys, ""), nil})
		}
	}
	return append(rows,
		goldenRow{"committee-Algorand", func() (Config, error) { return committeeGoldenConfig(), nil }, nil},
		// The scale suite's regime: committees of 64 seats, flow-aggregated
		// clients, no managed connection layer, most nodes silent per round.
		goldenRow{"committee-flows-Algorand", func() (Config, error) {
			return Config{
				System: NewAlgorand(), Seed: 42, Validators: 128, Clients: 256, Flows: 8,
				FlowAccounts: 256, RatePerClient: 0.05, CommitteeSize: 64,
				Duration: 60 * time.Second, DisableConnLayer: true,
			}, nil
		}, parallel})
}

// forkingGoldens names the rows whose runs may report integrity errors: a
// golden must not pin a fork silently, so any other row whose run reports
// one fails. Each entry is a known fork its owner fixes by deleting it.
var forkingGoldens = map[string]bool{
	// Two entries in each run: Solana validators reject blocks that reach
	// them through kadcast's stall model. ROADMAP item 10 owns it.
	"kadcast-crash-Solana": true,
}

// TestGolden holds every pinned configuration to its committed render, and
// the parallel kernel to the sequential one. A deliberate move is
// `go test -run TestGolden -update .` and a reviewed testdata/golden diff.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("goldens skipped in -short mode")
	}
	for _, row := range goldenRows() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				cfg, err := row.config()
				if err != nil {
					t.Fatal(err)
				}
				cfg.SimWorkers = workers
				var text string
				var runs []*RunResult
				if cfg.Fault.Kind == FaultNone && cfg.Scenario == nil {
					r, err := Run(cfg)
					if err != nil {
						t.Fatalf("P=%d: %v", workers, err)
					}
					text, runs = renderRun("run", r), []*RunResult{r}
				} else {
					cmp, err := Compare(cfg)
					if err != nil {
						t.Fatalf("P=%d: %v", workers, err)
					}
					text, runs = renderComparison(cmp), []*RunResult{cmp.Baseline, cmp.Altered}
				}
				for _, r := range runs {
					if r.SimWorkers != workers {
						t.Errorf("P=%d: run reported SimWorkers=%d", workers, r.SimWorkers)
					}
					if len(r.IntegrityErrors) > 0 && !forkingGoldens[row.name] {
						t.Errorf("P=%d: run reports %d integrity errors, first %q", workers, len(r.IntegrityErrors), r.IntegrityErrors[0])
					}
					// At n=10 a broadcast origin never pays more than the
					// mesh's n-1 = 9 first-hop sends.
					if ov := r.Overlay; ov.Origins > 0 && ov.SendsPerBroadcast() > 9 {
						t.Errorf("%f sends/broadcast exceeds the n-1 mesh cost", ov.SendsPerBroadcast())
					}
				}
				return text
			}
			want := render(0)
			path := filepath.Join("testdata", "golden", row.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if file, err := os.ReadFile(path); err != nil {
				t.Fatal(err)
			} else {
				sameRender(t, path, string(file), want)
			}
			for _, p := range row.workers {
				sameRender(t, fmt.Sprintf("P=%d against the sequential kernel", p), want, render(p))
			}
		})
	}
}

// TestGoldenRendersEveryRunResultField: each RunResult field is rendered or
// host-only, so a new measured field cannot escape the goldens.
func TestGoldenRendersEveryRunResultField(t *testing.T) {
	covered := make(map[string]bool)
	for _, name := range hostOnly {
		covered[name] = true
	}
	for _, l := range strings.Split(renderRun("r", &RunResult{}), "\n") {
		key, _, _ := strings.Cut(strings.TrimPrefix(l, "r."), " ")
		key, _, _ = strings.Cut(key, ".")
		covered[key] = true
	}
	fields := reflect.TypeOf(RunResult{})
	for i := range fields.NumField() {
		if name := fields.Field(i).Name; !covered[name] {
			t.Errorf("RunResult.%s is neither rendered by renderRun nor listed in hostOnly", name)
		}
	}
}

// TestParallelRunUntilInSlices pins Experiment.RunUntil's re-entrancy under
// the parallel kernel: advancing a SimWorkers=2 run in 1 s slices must equal
// advancing it in one call, and both must equal the sequential kernel.
// (runParallel used to close its worker channels on return, so the second
// slice panicked.)
func TestParallelRunUntilInSlices(t *testing.T) {
	cfg := Config{
		System:   NewRedbelly(),
		Seed:     42,
		Duration: 30 * time.Second,
		Fault:    FaultPlan{Kind: FaultCrash, InjectAt: 10 * time.Second, RecoverAt: 20 * time.Second},
	}
	run := func(workers int, slice time.Duration) string {
		t.Helper()
		c := cfg
		c.System = NewRedbelly()
		c.SimWorkers = workers
		e, err := core.Build(c)
		if err != nil {
			t.Fatalf("P=%d: %v", workers, err)
		}
		e.Start()
		for e.Now() < cfg.Duration {
			e.RunUntil(min(e.Now()+slice, cfg.Duration))
		}
		r := e.Collect()
		if r.SimWorkers != workers {
			t.Fatalf("P=%d: run reported SimWorkers=%d", workers, r.SimWorkers)
		}
		return renderRun("run", r)
	}
	want := run(0, cfg.Duration)
	sameRender(t, "P=2 in one call against the sequential kernel", want, run(2, cfg.Duration))
	sameRender(t, "P=2 in 1 s slices against the sequential kernel", want, run(2, time.Second))
}
