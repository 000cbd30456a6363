package stabl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"stabl/internal/core"
)

// TestShippedSpecsValidate walks every JSON file under specs/ through the
// same ValidateSpec path the `stabl spec` command uses, so a spec
// that drifts from the schema (renamed field, out-of-range scenario node,
// unknown fault) breaks the build rather than a future experiment.
func TestShippedSpecsValidate(t *testing.T) {
	var files []string
	err := filepath.WalkDir("specs", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 7 {
		t.Fatalf("found only %d spec files under specs/ — shipped examples missing", len(files))
	}
	var scenarios, campaigns int
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		kind, err := ValidateSpec(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		switch kind {
		case "campaign":
			campaigns++
		case "experiment":
			if strings.HasPrefix(path, filepath.Join("specs", "scenarios")) {
				scenarios++
			}
		default:
			t.Errorf("%s: unexpected spec kind %q", path, kind)
		}
	}
	if scenarios < 3 {
		t.Errorf("only %d scenario specs under specs/scenarios/, want the 3 shipped examples", scenarios)
	}
	if campaigns < 2 {
		t.Errorf("only %d campaign specs, want the crash and scenario sweeps", campaigns)
	}
}

// TestValidateSpecRejectsBrokenInput pins the failure modes ValidateSpec must
// catch: malformed JSON, unknown fields and semantically invalid configs.
func TestValidateSpecRejectsBrokenInput(t *testing.T) {
	cases := map[string]string{
		"malformed":          `{"system": "Redbelly"`,
		"unknown field":      `{"system": "Redbelly", "warp": 9}`,
		"unknown system":     `{"system": "Atlantis"}`,
		"bad scenario":       `{"system": "Redbelly", "scenario": {"name": "x", "actions": [{"op": "melt", "atSec": 1, "nodes": "all"}]}}`,
		"campaign bad fault": `{"systems": ["Redbelly"], "faults": ["meteor"]}`,
	}
	for name, body := range cases {
		if _, err := ValidateSpec(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

// shrinkSpec bounds a fuzzed spec to a run that fits a fuzz iteration: at
// most 32 validators and 10 virtual seconds, with the fault timeline scaled
// along so a fault a spec places inside its horizon still fires inside the
// shorter one, and the work per virtual second capped: clients, rates,
// accounts, workers, profile gains and the shortest timer periods.
func shrinkSpec(s Spec) Spec {
	s.Validators = min(s.Validators, 32)
	s.Clients = min(s.Clients, 64)
	s.AccountsPerClient = min(s.AccountsPerClient, 64)
	s.FlowAccounts = min(s.FlowAccounts, 256)
	s.SimWorkers = min(s.SimWorkers, 4)
	s.RatePerClient = min(s.RatePerClient, 100)
	s.ReadRate = min(s.ReadRate, 10)
	if s.RetryAfterSec > 0 {
		s.RetryAfterSec = max(s.RetryAfterSec, 0.1)
	}
	if p := s.Profile; p != nil {
		q := *p
		q.Factor, q.From, q.To, q.Amplitude = min(q.Factor, 10), min(q.From, 10), min(q.To, 10), min(q.Amplitude, 1)
		s.Profile = &q
	}
	horizon := s.DurationSec
	if horizon == 0 {
		horizon = 400 // the default
	}
	if horizon <= 10 {
		return s
	}
	scale := 10 / horizon
	s.DurationSec = 10
	if s.Fault.InjectSec == 0 {
		s.Fault.InjectSec = 133 // the defaults the scaled horizon no longer reaches
	}
	if s.Fault.RecoverSec == 0 {
		s.Fault.RecoverSec = 266
	}
	s.Fault.InjectSec *= scale
	s.Fault.RecoverSec *= scale
	if sc := s.Scenario; sc != nil {
		c := *sc
		c.Actions = slices.Clone(sc.Actions)
		for i := range c.Actions {
			a := &c.Actions[i]
			a.AtSec *= scale
			a.UntilSec *= scale
			for _, period := range []*float64{&a.PeriodSec, &a.OnSec, &a.OffSec} {
				if *period > 0 {
					*period = max(*period*scale, 0.05)
				}
			}
		}
		s.Scenario = &c
	}
	return s
}

// FuzzSpecRun drives arbitrary spec bytes through the CLI's path — parse,
// resolve, validate — and runs every config Validate accepts, shrunk by
// shrinkSpec, through Build, Start, RunUntil and Collect. A panic fails the
// target, and so does a Build error: Validate accepted what Build cannot
// deploy. Each config then runs a second time through rerun, whose render
// must equal the first: the same config, the same bytes.
func FuzzSpecRun(f *testing.F) {
	paths, err := filepath.Glob("specs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasPrefix(filepath.Base(path), "campaign-") {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := core.ParseSpec(bytes.NewReader(raw))
		if err != nil {
			t.Skip(err)
		}
		cfg, err := shrinkSpec(spec).Config(SystemByName)
		if err != nil {
			t.Skip(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		e, err := core.Build(cfg)
		if err != nil {
			t.Fatalf("Validate accepted a config Build rejects: %v\nspec: %s", err, raw)
		}
		e.Start()
		e.RunUntil(e.Config().Duration)
		first := e.Collect()
		second, err := rerun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRender(t, fmt.Sprintf("second run of seed %d (spec %s)", e.Config().Seed, raw),
			renderRun("run", first), renderRun("run", second))
	})
}
