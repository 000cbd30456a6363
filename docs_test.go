package stabl

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyLiveTargets: every `make <target>` and every
// BENCH_<name>.json the living documents name exists. ROADMAP.md and
// CHANGES.md are history and exempt. This is the check that would have kept
// four make targets and six report files from outliving their purpose in the
// docs.
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
		}
	}
}
