package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// documented are the files, relative to the module root, whose `stabl …`
// command lines TestDocumentedInvocationsParse holds to the CLI.
var documented = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
	".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
}

var (
	// inlineSpan is a markdown code span, which may wrap across lines.
	inlineSpan = regexp.MustCompile("`[^`]*`")
	// invocation is a stabl command line: the binary by path, at the start
	// of a line or of a code span, then its arguments up to the line's end.
	invocation = regexp.MustCompile("(?:^\\s*|[`/])stabl\\s+(.*)")
	// verbOrFlag is what may follow the binary's name in a command line;
	// anything else ("stabl (public API …") is prose.
	verbOrFlag = regexp.MustCompile(`^(-|[a-z][a-z0-9]*$)`)
)

// invocations extracts the argument lists of every stabl command line in a
// document: shell continuations and wrapped code spans are joined, a code
// span's closing backtick, a shell operator or a comment ends the line, and
// quotes are stripped.
func invocations(text string) [][]string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	text = strings.ReplaceAll(text, "```", "~~~") // fences are not spans
	text = inlineSpan.ReplaceAllStringFunc(text, func(span string) string {
		return strings.ReplaceAll(span, "\n", " ")
	})
	var out [][]string
	for _, line := range strings.Split(text, "\n") {
		m := invocation.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rest, _, _ := strings.Cut(m[1], "`")
		var args []string
		for _, tok := range strings.Fields(rest) {
			if strings.HasPrefix(tok, "#") || strings.ContainsAny(tok[:1], "|;&>") || strings.HasPrefix(tok, "2>") {
				break
			}
			args = append(args, strings.Trim(tok, `'"`))
		}
		if len(args) > 0 && verbOrFlag.MatchString(args[0]) {
			out = append(out, args)
		}
	}
	return out
}

// TestDocumentedInvocationsParse: every stabl command line in the docs, the
// Makefile, CI and the verify skill names a verb and only flags that verb
// reads. Nothing runs: the lines go through parse alone.
func TestDocumentedInvocationsParse(t *testing.T) {
	n := 0
	for _, path := range documented {
		data, err := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range invocations(string(data)) {
			n++
			if _, err := parse(args, io.Discard); err != nil && !errors.Is(err, flag.ErrHelp) {
				t.Errorf("%s: stabl %s: %v", path, strings.Join(args, " "), err)
			}
		}
	}
	if n < 50 {
		t.Errorf("found %d documented invocations, want at least 50: is the extraction still matching?", n)
	}
}
