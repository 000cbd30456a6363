package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stabl"
)

// fastArgs shrink the experiment so CLI tests stay quick.
var fastArgs = []string{"-duration", "90s", "-inject", "30s", "-recover", "60s"}

// runCLI runs `stabl <verb> <fastArgs> <args>`; a scenario's timeline
// replaces the fault window, so the scenario verb takes only -duration.
func runCLI(t *testing.T, verb string, args ...string) string {
	t.Helper()
	fast := fastArgs
	if verb == "scenario" {
		fast = fastArgs[:2]
	}
	var buf strings.Builder
	if err := run(append(append([]string{verb}, fast...), args...), &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput: %s", args, err, buf.String())
	}
	return buf.String()
}

func TestCLIRunCommand(t *testing.T) {
	out := runCLI(t, "run", "-system", "Redbelly", "-fault", "crash")
	if !strings.Contains(out, "Redbelly") || !strings.Contains(out, "score=") {
		t.Fatalf("output = %q", out)
	}
}

// TestCLIRunPrintsOverlayCounters: with an overlay configured, text mode
// carries one line of router counters per run; mesh output has none, and
// JSON output is the same document either way.
func TestCLIRunPrintsOverlayCounters(t *testing.T) {
	mesh := runCLI(t, "run", "-system", "Redbelly", "-fault", "crash")
	if strings.Contains(mesh, "overlay") {
		t.Fatalf("mesh output mentions an overlay:\n%s", mesh)
	}
	for _, args := range [][]string{
		{"run", "-system", "Redbelly", "-fault", "crash", "-overlay", "kadcast"},
		{"scenario", "-system", "Redbelly", "-overlay", "kadcast", "-scenario", "eclipse"},
	} {
		out := runCLI(t, args[0], args[1:]...)
		for _, run := range []string{"baseline", "altered"} {
			var line string
			for _, l := range strings.Split(out, "\n") {
				if strings.HasPrefix(l, "overlay "+run) {
					line = l
				}
			}
			for _, field := range []string{"origins=", "sends/origin=", "relayed=", "duplicates=", "of envelopes", "stall-skips=", "stall-drops="} {
				if !strings.Contains(line, field) {
					t.Errorf("%v: %s overlay line %q lacks %q", args, run, line, field)
				}
			}
			if strings.Contains(line, "origins=0 ") || strings.Contains(line, "relayed=0 ") {
				t.Errorf("%v: %s overlay line reports no routing: %q", args, run, line)
			}
		}
		if strings.Count(out, "\noverlay ") != 2 {
			t.Errorf("%v: want one overlay line per run:\n%s", args, out)
		}
	}
	var report map[string]any
	out := runCLI(t, "run", "-system", "Redbelly", "-fault", "crash", "-overlay", "kadcast", "-json")
	if err := json.Unmarshal([]byte(out), &report); err != nil || strings.Contains(out, "origins=") {
		t.Fatalf("-json output is not the plain report (%v):\n%s", err, out)
	}
}

func TestCLIRunJSON(t *testing.T) {
	out := runCLI(t, "run", "-system", "Redbelly", "-fault", "crash", "-json")
	var report struct {
		System string  `json:"system"`
		Score  float64 `json:"score"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if report.System != "Redbelly" {
		t.Fatalf("report = %+v", report)
	}
}

func TestCLIFig3aWritesSVG(t *testing.T) {
	dir := t.TempDir()
	out := runCLI(t, "fig3a", "-svg", dir)
	if !strings.Contains(out, "Fig 3a") {
		t.Fatalf("output = %q", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3a.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("not an SVG document")
	}
}

// TestCLIFigureFailsOnFailedCell: on four validators that each serve a
// client, the paper's t+1 transient nodes have no fault-eligible node to
// land on, so every cell of fig3b fails; the command prints no panel and its
// error names the first failed cell's system and fault.
func TestCLIFigureFailsOnFailedCell(t *testing.T) {
	var buf strings.Builder
	err := run(append([]string{"fig3b", "-validators", "4", "-clients", "4"}, fastArgs...), &buf)
	if err == nil || !strings.HasPrefix(err.Error(), "Algorand/transient: ") || !strings.Contains(err.Error(), "faulty nodes") {
		t.Fatalf("error = %v, want Algorand/transient's failed cell", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a failed figure printed:\n%s", buf.String())
	}
}

// TestCLIUnknownCommand: a verb the CLI does not have — the retired bench
// verb included — is refused by name, and -help lists none of its flags.
func TestCLIUnknownCommand(t *testing.T) {
	for _, cmd := range []string{"frobnicate", "bench"} {
		var buf strings.Builder
		err := run([]string{cmd}, &buf)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown command %q", cmd)) {
			t.Errorf("%s: error = %v, want unknown command", cmd, err)
		}
	}
	var help strings.Builder
	if err := run([]string{"-help"}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-help error = %v, want flag.ErrHelp", err)
	}
	for _, name := range []string{"bench-out", "fork-out", "bench-full", "scale-out", "gossip-out", "scale-short", "parallel-out"} {
		if strings.Contains(help.String(), "-"+name) {
			t.Errorf("-help still lists -%s", name)
		}
	}
}

// TestCLIRejectsNonPositiveBucket: RenderThroughput steps by -bucket, so a
// step that never advances is refused before any simulation starts (it used
// to finish both runs and then spin forever).
func TestCLIRejectsNonPositiveBucket(t *testing.T) {
	for _, bucket := range []string{"0", "-5s"} {
		start := time.Now()
		var buf strings.Builder
		err := run([]string{"run", "-bucket", bucket}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-bucket") {
			t.Errorf("-bucket %s: error = %v, want one naming -bucket", bucket, err)
		}
		// The default run simulates 400 s twice, several wall seconds.
		if wall := time.Since(start); wall > time.Second {
			t.Errorf("-bucket %s: refused after %v, want before any run", bucket, wall)
		}
	}
}

// TestCLIRejectsExplicitZero: core reads a zero deployment size, rate or
// instant as its default, so a 0 on the command line is refused by flag name
// before any simulation starts (`-inject 0s` used to inject at 2m13s).
func TestCLIRejectsExplicitZero(t *testing.T) {
	for _, name := range []string{"validators", "clients", "rate", "duration", "inject", "recover"} {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			var buf strings.Builder
			err := run([]string{"run", "-duration", "20s", "-inject", "5s", "-recover", "10s", "-" + name, "0", "-fault", "crash"}, &buf)
			if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
				t.Errorf("-%s 0: error = %v, want one naming -%s", name, err, name)
			}
			if wall := time.Since(start); wall > time.Second {
				t.Errorf("-%s 0: refused after %v, want before any run", name, wall)
			}
		})
	}
}

func TestCLIUnknownSystem(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"run", "-system", "Bitcoin"}, &buf); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestCLIUnknownFault(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"run", "-fault", "meteor"}, &buf); err == nil {
		t.Fatal("unknown fault accepted")
	}
}

func TestCLINoCommand(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Fatal("missing command accepted")
	}
}

func TestParseFaultRoundTrip(t *testing.T) {
	for _, name := range []string{"none", "crash", "transient", "partition", "secure-client", "slow"} {
		kind, err := stabl.ParseFaultKind(name)
		if err != nil {
			t.Fatalf("ParseFaultKind(%s): %v", name, err)
		}
		if kind.String() != name {
			t.Fatalf("round trip %s -> %s", name, kind)
		}
	}
}

func TestCLIRunWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	spec := `{
		"system": "Redbelly",
		"seed": 5,
		"durationSec": 60,
		"fault": {"kind": "crash", "injectSec": 20}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"run", "-config", path}, &buf); err != nil {
		t.Fatalf("run -config: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "Redbelly") || !strings.Contains(buf.String(), "crash") {
		t.Fatalf("output = %q", buf.String())
	}
}

func TestCLIRunWithMissingConfigFile(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"run", "-config", "/nonexistent.json"}, &buf); err == nil {
		t.Fatal("missing config accepted")
	}
}

// TestCLIRejectsOutOfRangeSpec: a spec whose numbers or names have no
// deployment is reported INVALID by `spec` and refused by `run` with an error
// naming the field (for an unknown overlay, the valid one), instead of
// panicking in a constructor or scoring inf.
func TestCLIRejectsOutOfRangeSpec(t *testing.T) {
	for _, tc := range []struct{ field, body string }{
		{"RatePerClient", `"ratePerClient": -2`},
		{"AccountsPerClient", `"accountsPerClient": -1`},
		{"Duration", `"durationSec": -5`},
		{"RecoverAt", `"fault": {"kind": "transient", "injectSec": 15, "recoverSec": 5}`},
		{"Fault.Count", `"fault": {"kind": "slow", "count": -3}`},
		{"Fault.SlowBy", `"fault": {"kind": "slow", "slowBySec": -5}`},
		{"kadcast", `"overlay": {"topology": "regular"}`},
	} {
		field := tc.field
		t.Run(field, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(path, []byte(`{"system": "Redbelly", `+tc.body+`}`), 0o644); err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			if err := run([]string{"spec", path}, &buf); err == nil {
				t.Fatalf("spec accepted it:\n%s", buf.String())
			}
			if !strings.Contains(buf.String(), "INVALID") || !strings.Contains(buf.String(), field) {
				t.Fatalf("spec output does not flag %s: %q", field, buf.String())
			}
			err := run([]string{"run", "-config", path}, &buf)
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Fatalf("run -config error = %v, want one naming %s", err, field)
			}
		})
	}
	for _, tc := range []struct{ flag, value, want string }{
		{"-rate", "-1", "RatePerClient"},
		{"-overlay", "ring", "kadcast"},
	} {
		var buf strings.Builder
		if err := run([]string{"run", tc.flag, tc.value}, &buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run %s %s error = %v, want one naming %s", tc.flag, tc.value, err, tc.want)
		}
	}
}

// campaignSpec is a small two-system fault-space grid that the campaign CLI
// tests share: 2x (2 counts x 1 inject) crash cells x 2 seeds = 8+ cells.
const campaignSpec = `{
	"systems": ["Redbelly", "Algorand"],
	"faults": ["crash"],
	"countDeltas": [0, 1],
	"injectSecs": [20],
	"seeds": [1, 2],
	"base": {"durationSec": 60}
}`

func writeCampaignSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(path, []byte(campaignSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLICampaignJSONStableAcrossWorkers(t *testing.T) {
	path := writeCampaignSpec(t)
	encode := func(workers string) string {
		var buf strings.Builder
		if err := run([]string{"campaign", "-config", path, "-workers", workers, "-json"}, &buf); err != nil {
			t.Fatalf("campaign -workers %s: %v", workers, err)
		}
		return buf.String()
	}
	sequential := encode("1")
	parallel := encode("4")
	if sequential != parallel {
		t.Fatalf("campaign output depends on worker count:\n%s\nvs\n%s", parallel, sequential)
	}
	var res struct {
		TotalCells  int `json:"totalCells"`
		FailedCells int `json:"failedCells"`
		Systems     []struct {
			System string `json:"system"`
		} `json:"systems"`
	}
	if err := json.Unmarshal([]byte(sequential), &res); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if res.TotalCells != 8 || res.FailedCells != 0 {
		t.Fatalf("campaign = %+v", res)
	}
	if len(res.Systems) != 2 || res.Systems[0].System != "Redbelly" {
		t.Fatalf("systems = %+v", res.Systems)
	}
}

func TestCLICampaignTextAndHeatmaps(t *testing.T) {
	path := writeCampaignSpec(t)
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"campaign", "-config", path, "-workers", "2", "-svg", dir}, &buf); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "campaign: 8 cells") || !strings.Contains(out, "most sensitive:") {
		t.Fatalf("output = %q", out)
	}
	for _, name := range []string{"campaign-Redbelly.svg", "campaign-Algorand.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "fault-space sensitivity") {
			t.Fatalf("%s is not a campaign heatmap", name)
		}
	}
}

// TestCLIFlagsAfterCommand: flags follow the verb; a leading flag is refused
// with the verb list instead of being read as global.
func TestCLIFlagsAfterCommand(t *testing.T) {
	path := writeCampaignSpec(t)
	var buf strings.Builder
	err := run([]string{"-config", path, "campaign"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "flags follow the command") {
		t.Fatalf("leading flag: error = %v, want one saying flags follow the command", err)
	}
	for _, cmd := range commands {
		if !strings.Contains(buf.String(), "\n  "+cmd.name+" ") {
			t.Errorf("leading-flag usage does not list %s:\n%s", cmd.name, buf.String())
		}
	}
	buf.Reset()
	if err := run([]string{"campaign", "-config", path, "-workers", "2", "-json"}, &buf); err != nil {
		t.Fatalf("flags after command rejected: %v", err)
	}
	var res struct {
		TotalCells int `json:"totalCells"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &res); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if res.TotalCells != 8 {
		t.Fatalf("totalCells = %d", res.TotalCells)
	}
}

func TestCLITwoCommandsRejected(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"fig3a", "fig3b"}, &buf); err == nil {
		t.Fatal("two commands accepted")
	}
}

func TestCLICampaignRequiresConfig(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"campaign"}, &buf); err == nil {
		t.Fatal("campaign without -config accepted")
	}
}

func TestCLIScenarioList(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"scenario", "-list"}, &buf); err != nil {
		t.Fatalf("scenario -list: %v", err)
	}
	out := buf.String()
	for _, name := range []string{"cascade", "flap", "lossy-wan", "rolling-restart"} {
		if !strings.Contains(out, name) {
			t.Fatalf("scenario -list output %q is missing scenario %s", out, name)
		}
	}
	// Same two-column layout as lint -list: names padded to 20 columns,
	// descriptions aligned at column 22.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if len(line) < 22 {
			t.Fatalf("scenario -list line %q has no description column", line)
		}
		if line[20] != ' ' || line[21] == ' ' {
			t.Fatalf("scenario -list line %q is not aligned at column 22", line)
		}
	}
}

func TestCLISearchCount(t *testing.T) {
	out := runCLI(t, "search", "-system", "Redbelly", "-fault", "crash", "-lo", "1", "-hi", "2")
	if !strings.Contains(out, "search: Redbelly") || !strings.Contains(out, "probe count=") {
		t.Fatalf("output = %q", out)
	}
	if !strings.Contains(out, "boundary:") {
		t.Fatalf("output reports no boundary: %q", out)
	}
}

func TestCLISearchJSON(t *testing.T) {
	out := runCLI(t, "search", "-system", "Redbelly", "-fault", "crash", "-lo", "1", "-hi", "2", "-json")
	var res struct {
		Cells      []struct{ Count int } `json:"cells"`
		Bisections []struct {
			Cell struct {
				System string `json:"system"`
			} `json:"cell"`
			Axis   string `json:"axis"`
			Probes []struct {
				X    float64 `json:"x"`
				Fail bool    `json:"fail"`
			} `json:"probes"`
			Runs int `json:"runs"`
		} `json:"bisections"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if len(res.Bisections) != 1 {
		t.Fatalf("bisections = %d, want 1\n%s", len(res.Bisections), out)
	}
	b := res.Bisections[0]
	if b.Cell.System != "Redbelly" || b.Axis != "count" || len(b.Probes) == 0 {
		t.Fatalf("result = %+v", b)
	}
	if b.Runs != len(b.Probes)+1 {
		t.Fatalf("runs = %d, want probes+baseline = %d", b.Runs, len(b.Probes)+1)
	}
	// Every probe is a campaign cell at its count.
	if len(res.Cells) != len(b.Probes) || res.Cells[0].Count != int(b.Probes[0].X) {
		t.Fatalf("cells %+v do not match probes %+v", res.Cells, b.Probes)
	}
}

func TestCLISearchValidation(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"search", "-axis", "voltage"}, &buf); err == nil {
		t.Fatal("unknown axis accepted")
	}
	if err := run([]string{"search", "-axis", "intensity"}, &buf); err == nil {
		t.Fatal("intensity without -scenario accepted")
	}
	if err := run([]string{"search", "-axis", "count", "-fault", "secure-client"}, &buf); err == nil {
		t.Fatal("count axis over a nodeless fault accepted")
	}
}

// lintAnalyzers is every analyzer `stabl lint` registers.
var lintAnalyzers = []string{"cross-partition-state", "effort-bound", "globalrand", "goroutine-purity", "snapshot-fields", "wallclock"}

func TestCLILintList(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"lint", "-list"}, &buf); err != nil {
		t.Fatalf("lint -list: %v", err)
	}
	for _, name := range lintAnalyzers {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("lint -list output %q is missing analyzer %s", buf.String(), name)
		}
	}
	if n := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1; n != len(lintAnalyzers) {
		t.Fatalf("lint -list printed %d lines, want one per analyzer (%d):\n%s", n, len(lintAnalyzers), buf.String())
	}
}

// TestCLILintUnknownAnalyzer mirrors TestCLIUnknownFault: a typo, or an
// analyzer since deleted, fails with an error that enumerates the valid
// names.
func TestCLILintUnknownAnalyzer(t *testing.T) {
	for _, name := range []string{"bogus", "maprange-rng"} {
		var buf strings.Builder
		err := run([]string{"lint", "-analyzers", name}, &buf)
		if err == nil {
			t.Fatalf("unknown analyzer %q accepted", name)
		}
		for _, want := range append([]string{`unknown analyzer "` + name + `"`}, lintAnalyzers...) {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
	}
}

func TestCLILintCleanPackage(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"lint", "stabl/internal/stats"}, &buf); err != nil {
		t.Fatalf("lint on a clean package failed: %v\n%s", err, buf.String())
	}
	if strings.TrimSpace(buf.String()) != "" {
		t.Fatalf("lint on a clean package printed diagnostics:\n%s", buf.String())
	}
}

// TestCLILintJSON pins the machine-readable mode: a clean package renders
// an empty JSON array (never "null") and still exits zero.
func TestCLILintJSON(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"lint", "-json", "stabl/internal/stats"}, &buf); err != nil {
		t.Fatalf("lint -json on a clean package failed: %v\n%s", err, buf.String())
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("lint -json on a clean package = %q, want []", got)
	}
}

// TestCLIRejectsUnreadFlags: each verb parses only the flags it reads, so a
// flag it would ignore is an error instead of a silent no-op.
func TestCLIRejectsUnreadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"fig3a", "-system", "Aptos"},
		{"campaign", "-seed", "7"},
		{"fig7", "-svg", "out"},
		{"lint", "-bucket", "5s"},
		{"spec", "-json"},
		{"suite", "-fault", "crash"},
	} {
		var buf strings.Builder
		err := run(args, &buf)
		if want := "flag provided but not defined: " + args[1]; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: error = %v, want %q", args, err, want)
		}
	}
}

// TestCLIVerbHelp: `stabl <verb> -help` prints that verb's flags only.
func TestCLIVerbHelp(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"run", "-help"}, &buf); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -help error = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(buf.String(), "-system") || strings.Contains(buf.String(), "-analyzers") {
		t.Fatalf("run -help should list -system and not -analyzers:\n%s", buf.String())
	}
}

// TestCLIConfigFlagOverride: a flag set beside -config overrides that field
// of the spec: the run is the flags-only experiment at seed 7, not the
// spec's seed 42.
func TestCLIConfigFlagOverride(t *testing.T) {
	spec := filepath.Join("..", "..", "specs", "transient-redbelly.json")
	withConfig := runCLI(t, "run", "-config", spec, "-seed", "7", "-json")
	seed7 := runCLI(t, "run", "-system", "Redbelly", "-fault", "transient", "-seed", "7", "-json")
	seed42 := runCLI(t, "run", "-config", spec, "-json")
	if withConfig != seed7 {
		t.Fatalf("run -config %s -seed 7 differs from the seed-7 flags run:\n%s\nvs\n%s", spec, withConfig, seed7)
	}
	if withConfig == seed42 {
		t.Fatal("-seed 7 beside -config did not change the run")
	}
}

// TestCLIRunFailsOnIntegrity: the kadcast-crash-Solana golden row forks in
// both runs (two integrity entries each); run prints its report, then fails
// naming the entries.
func TestCLIRunFailsOnIntegrity(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"run", "-system", "Solana", "-fault", "crash", "-overlay", "kadcast",
		"-duration", "120s", "-inject", "40s", "-recover", "80s"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "4 integrity violation(s)") || !strings.Contains(err.Error(), "height ") {
		t.Fatalf("error = %v, want the four integrity entries, naming a height", err)
	}
	for _, run := range []string{"baseline: ", "altered: "} {
		if strings.Count(err.Error(), run) != 2 {
			t.Errorf("error does not list two %sentries: %v", run, err)
		}
	}
	if !strings.Contains(buf.String(), "score=") {
		t.Fatalf("report not printed before the failure:\n%s", buf.String())
	}
}
