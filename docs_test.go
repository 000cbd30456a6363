package stabl

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameOnlyLiveTargets: every `make <target>`, every
// BENCH_<name>.json and every Test/Fuzz/Benchmark name the living documents
// name exists; a test name only as the prefix of some test function, since
// docs cite `-run` patterns. ROADMAP.md and CHANGES.md are history and
// exempt. This is the check that would have kept four make targets, six
// report files and the per-table golden tests from outliving their purpose in
// the docs.
func TestDocsNameOnlyLiveTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):(?:[^=]|$)`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	for _, name := range strings.Fields(string(phony[1])) {
		if !targets[name] {
			t.Errorf("Makefile: .PHONY names %q, which has no rule", name)
		}
	}

	// A make invocation is `make <target>` opening a backtick span anywhere,
	// or starting a command line (a CI `run:` step included). In Markdown a
	// command line only counts inside a code fence, so a paragraph that
	// wraps onto "make sure ..." is not read as one.
	quoted := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	command := regexp.MustCompile(`^\s*(?:- run: )?make ([a-z][a-z0-9-]*)`)
	report := regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	funcs := testFuncs(t)
	for _, path := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		markdown := filepath.Ext(path) == ".md"
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if markdown && strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			named := quoted.FindAllStringSubmatch(line, -1)
			if fenced || !markdown {
				named = append(named, command.FindAllStringSubmatch(line, -1)...)
			}
			for _, m := range named {
				if !targets[m[1]] {
					t.Errorf("%s:%d: names `make %s`, which the Makefile does not define", path, i+1, m[1])
				}
			}
			for _, name := range report.FindAllString(line, -1) {
				if _, err := os.Stat(name); err != nil {
					t.Errorf("%s:%d: names %s, which does not exist", path, i+1, name)
				}
			}
			for _, name := range testName.FindAllString(line, -1) {
				if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
					t.Errorf("%s:%d: names %s, which no test function in a _test.go file starts with", path, i+1, name)
				}
			}
		}
	}
}

// testFuncs lists the Test, Fuzz and Benchmark functions of every _test.go
// file in the module.
func testFuncs(t *testing.T) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(data, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDocsLineBudget: DESIGN.md and EXPERIMENTS.md may not grow past the
// length they had when the budget was set, so a new section is paid for by
// deleting an old one.
func TestDocsLineBudget(t *testing.T) {
	for path, budget := range map[string]int{"DESIGN.md": 884, "EXPERIMENTS.md": 659} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n > budget {
			t.Errorf("%s is %d lines, over its budget of %d: delete before adding", path, n, budget)
		}
	}
}

// codeSizeBudget is the non-test Go line count `make loc` printed when the
// budget was last recorded. A change that raises it says so, and why, in
// CHANGES.md.
const codeSizeBudget = 25822

// TestCodeSizeBudget: the module's non-test Go — every .go file but the
// _test.go ones, outside .bench_build, counted in lines as `make loc` counts
// them — may not grow past codeSizeBudget, so new code is paid for by
// deleting old code or by a recorded decision to raise the budget.
func TestCodeSizeBudget(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == ".bench_build" {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		lines += strings.Count(string(data), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines > codeSizeBudget {
		t.Errorf("non-test Go is %d lines, over its budget of %d: delete code, or raise codeSizeBudget and say why in CHANGES.md", lines, codeSizeBudget)
	} else if lines < codeSizeBudget {
		t.Logf("non-test Go is %d lines, %d under its budget: lower codeSizeBudget to ratchet it", lines, codeSizeBudget-lines)
	}
}
