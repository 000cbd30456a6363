package lint_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"stabl/internal/lint"
)

// fixtureAnalyzers maps each testdata/src package to the analyzers it
// seeds. Every analyzer has at least one true-positive and one clean
// fixture; the suppress package exercises the //stabl:nodet escape hatch
// and wallclockfree the wallclock applicability gate.
var fixtureAnalyzers = map[string]string{
	"wallclock":      "wallclock",
	"wallclockfree":  "wallclock",
	"globalrand":     "globalrand",
	"suppress":       "globalrand",
	"crosspartition": "cross-partition-state",
	"snapshotfields": "snapshot-fields",
	"goroutine":      "goroutine-purity",
	"effortbound":    "effort-bound",
}

func fixtureDirs() []string {
	dirs := make([]string, 0, len(fixtureAnalyzers))
	for dir := range fixtureAnalyzers {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs
}

func loadFixture(t *testing.T, dir string) *lint.Program {
	t.Helper()
	prog, err := lint.LoadDir(filepath.Join("testdata", "src", dir), "stabl/internal/lint/testdata/"+dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return prog
}

func runFixture(t *testing.T, dir string) []lint.Diagnostic {
	t.Helper()
	analyzers, err := lint.Select(fixtureAnalyzers[dir])
	if err != nil {
		t.Fatalf("selecting analyzers for %s: %v", dir, err)
	}
	return lint.Run(loadFixture(t, dir), analyzers)
}

// wantRe extracts `want "substring"` expectations from fixture comments.
var wantRe = regexp.MustCompile(`want "([^"]*)"`)

type expectation struct {
	key  string // file:line
	text string
	met  bool
}

func fixtureWants(prog *lint.Program) []*expectation {
	var wants []*expectation
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := pkg.Fset.Position(c.Pos())
						wants = append(wants, &expectation{
							key:  fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
							text: m[1],
						})
					}
				}
			}
		}
	}
	return wants
}

// TestFixtures checks every analyzer against its seeded violations: each
// `want` comment must be matched by a diagnostic on its line, and no
// diagnostic may fire without a matching want — so the clean idioms
// (sorted keys, threaded seeds, virtual time, guarded recursion) prove the
// analyzers stay silent where they should.
func TestFixtures(t *testing.T) {
	for _, dir := range fixtureDirs() {
		t.Run(dir, func(t *testing.T) {
			prog := loadFixture(t, dir)
			analyzers, err := lint.Select(fixtureAnalyzers[dir])
			if err != nil {
				t.Fatal(err)
			}
			diags := lint.Run(prog, analyzers)
			wants := fixtureWants(prog)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				matched := false
				for _, w := range wants {
					if !w.met && w.key == key && strings.Contains(d.Message, w.text) {
						w.met = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.met {
					t.Errorf("no diagnostic matching %q at %s", w.text, w.key)
				}
			}
		})
	}
}

// TestSuppressionScoping covers the //stabl:nodet escape hatch on the new
// analyzers: a directive naming the analyzer silences the finding (but
// RunAll still surfaces it, flagged, for -json audits), and a directive
// naming a different analyzer suppresses nothing.
func TestSuppressionScoping(t *testing.T) {
	cases := []struct {
		dir, analyzer, field string
	}{
		{"snapshotfields", "snapshot-fields", "cache"},
		{"goroutine", "goroutine-purity", "quiet"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			prog := loadFixture(t, tc.dir)
			analyzers, err := lint.Select(tc.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			var suppressed []lint.Diagnostic
			for _, d := range lint.RunAll(prog, analyzers) {
				if d.Suppressed {
					suppressed = append(suppressed, d)
				}
			}
			if len(suppressed) != 1 {
				t.Fatalf("RunAll surfaced %d suppressed findings, want exactly 1 (the %s field): %v",
					len(suppressed), tc.field, suppressed)
			}
			for _, d := range lint.Run(prog, analyzers) {
				if d.Suppressed {
					t.Errorf("Run returned a suppressed diagnostic: %s", d)
				}
			}
		})
	}
	// The wrongScope field in snapshotfields carries a directive naming the
	// wallclock analyzer; TestFixtures already requires the snapshot-fields
	// diagnostic to fire there, which proves mismatched scopes do not leak.
}

// TestDeterministicOutput loads and analyzes every fixture twice and
// requires the rendered diagnostics to be byte-identical — the same
// property `make verify` relies on for the full tree. The first render in
// the process pays the cold load; later renders hit the process-wide
// loader cache, so this doubles as the cached-path identity check (the
// internal cache test covers cold-vs-warm explicitly).
func TestDeterministicOutput(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, dir := range fixtureDirs() {
			for _, d := range runFixture(t, dir) {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("diagnostics differ between two identical runs:\n--- first\n%s--- second\n%s", first, second)
	}
	if first == "" {
		t.Fatal("fixtures produced no diagnostics at all; determinism check is vacuous")
	}
}

// TestWriteJSON pins the machine-readable format: stable field order,
// one object per finding, suppressed findings present and flagged.
func TestWriteJSON(t *testing.T) {
	prog := loadFixture(t, "snapshotfields")
	analyzers, err := lint.Select("snapshot-fields")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := lint.WriteJSON(&b, lint.RunAll(prog, analyzers)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	if len(decoded) == 0 {
		t.Fatal("JSON output is empty")
	}
	keyOrder := regexp.MustCompile(`(?s)"analyzer".*"file".*"line".*"col".*"message".*"suppressed"`)
	if !keyOrder.MatchString(out) {
		t.Errorf("JSON fields are not in the documented order:\n%s", out)
	}
	sawSuppressed := false
	for _, obj := range decoded {
		for _, key := range []string{"analyzer", "file", "line", "col", "message", "suppressed"} {
			if _, ok := obj[key]; !ok {
				t.Errorf("finding is missing %q: %v", key, obj)
			}
		}
		if obj["suppressed"] == true {
			sawSuppressed = true
		}
	}
	if !sawSuppressed {
		t.Error("no suppressed finding in the JSON output; the cache field should be there, flagged")
	}
}

// TestSelect covers the analyzer registry: default-all, subsets, the
// "all" keyword mixed with explicit names, and the ParseFaultKind-style
// error that enumerates valid names on a typo.
func TestSelect(t *testing.T) {
	all, err := lint.Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("Select(\"\") returned %d analyzers, want 6", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("analyzers not sorted by name: %q before %q", all[i-1].Name, all[i].Name)
		}
	}

	subset, err := lint.Select("wallclock,globalrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 {
		t.Fatalf("Select(subset) returned %d analyzers, want 2", len(subset))
	}

	// "all" anywhere in the list selects everything rather than erroring
	// as an unknown analyzer named "all".
	for _, list := range []string{"all", "all,wallclock", "wallclock,all"} {
		got, err := lint.Select(list)
		if err != nil {
			t.Fatalf("Select(%q): %v", list, err)
		}
		if len(got) != len(all) {
			t.Fatalf("Select(%q) returned %d analyzers, want %d", list, len(got), len(all))
		}
	}

	// ...but the names riding along with "all" are still validated.
	if _, err := lint.Select("all,bogus"); err == nil {
		t.Fatal("Select(\"all,bogus\") succeeded, want error")
	}

	_, err = lint.Select("bogus")
	if err == nil {
		t.Fatal("Select(\"bogus\") succeeded, want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown analyzer "bogus"`) {
		t.Errorf("error %q does not name the unknown analyzer", msg)
	}
	for _, a := range all {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("error %q does not enumerate valid analyzer %q", msg, a.Name)
		}
	}
}

// TestTreeClean runs the full pass over the entire module, the same gate
// `make verify` applies: the committed tree must be free of unsuppressed
// diagnostics.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree typecheck is slow; covered by make verify")
	}
	prog, err := lint.Load([]string{"stabl/..."})
	if err != nil {
		t.Fatal(err)
	}
	if diags := lint.Run(prog, lint.All()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
