// Package lint is a stdlib-only static-analysis engine that machine-checks
// the determinism invariants the STABL reproduction depends on.
//
// Every experiment result in this repo — and the paper's headline
// sensitivity metric in particular — is only trustworthy because runs are
// bit-for-bit reproducible from their seed. Four separate nondeterminism
// bugs have already shipped and been fixed by hand (the client retry and
// connection keep-alive loops, redbelly's resendRound, avalanche's
// closeRound), and every one of them was the same shape: a `range` over a
// Go map whose body drew from a shared RNG stream or sent on the simulated
// network, letting Go's randomized map order desync otherwise identical
// runs. Rather than rediscovering that bug class by bisecting golden-test
// failures, the invariants are encoded here as analyzers and enforced by
// `stabl lint` (wired into `make verify`).
//
// The engine analyzes whole programs, not single packages: Load type-checks
// the target packages plus every module-local dependency through one shared
// FileSet/importer, and callgraph.go layers a cross-package call graph and
// taint engine on top (interface dispatch resolved over the module's
// concrete implementers), so a map range whose body reaches the RNG through
// a helper in another package is flagged just like a direct draw. An
// Analyzer is a named function over one target package with program-wide
// indexes in reach; diagnostics are position-sorted so output is
// byte-identical across runs; and a `//stabl:nodet` comment suppresses a
// finding on its own line or the line below, optionally scoped to specific
// analyzers, with a justification after `--`:
//
//	//stabl:nodet globalrand -- validation-only context, values unused
//
// Packages are loaded and type-checked with go/parser + go/types only; one
// `go list -deps -json` invocation (cached across the run) resolves import
// paths, so the module needs no dependencies beyond the standard library.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named determinism rule. Run inspects a single
// type-checked package through the Pass and reports findings with
// Pass.Reportf. Analyzers must be pure functions of the package: no
// file-system access, no global state, and (ironically) no map-order
// dependence in their own output — the engine sorts diagnostics, but
// messages themselves must not embed nondeterministic content.
type Analyzer struct {
	// Name identifies the analyzer in output lines, -analyzers flags and
	// //stabl:nodet scopes. Lower-case, hyphenated.
	Name string
	// Doc is a one-line description shown by `stabl lint -list`.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer. Prog is the
// whole program the package was loaded into: analyzers that follow calls
// across package boundaries (taint, reachability, field writes) go through
// its indexes; package-local analyzers can ignore it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Prog     *Program
	Target   *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file. Several analyzers
// exempt tests: test harnesses may legitimately consult wall clocks and
// fixed seeds without perturbing experiment reproducibility.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding. String renders the conventional
// path:line:col: [analyzer] message form `stabl lint` prints.
// Suppressed marks findings silenced by a //stabl:nodet
// directive: Run drops them, RunAll keeps them flagged so -json consumers
// can audit the escape hatches in use.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies the analyzers to the program's target packages and returns
// the surviving diagnostics: suppressed findings are dropped, the rest
// deduplicated and sorted so two runs over the same tree produce
// byte-identical output.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	all := RunAll(prog, analyzers)
	out := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunAll is Run without the suppression filter: every finding is returned,
// sorted by (file, line, column, analyzer, message), with the ones a
// //stabl:nodet directive covers marked Suppressed instead of dropped.
func RunAll(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		sup := suppressions(pkg.Fset, pkg.Files)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				Target:   pkg,
				diags:    &pkgDiags,
			}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			d.Suppressed = sup.covers(d)
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Deduplicate: the same finding can surface twice when an analyzer
	// walks overlapping scopes (e.g. nested map ranges sharing a sink).
	out := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// nodetDirective is the suppression comment prefix. The full grammar is
//
//	//stabl:nodet [analyzer[,analyzer...]] [-- justification]
//
// With no analyzer names the directive silences every analyzer. The
// directive applies to findings on its own line and on the line directly
// below it, so it works both as a trailing comment and as a standalone
// comment above the flagged statement.
const nodetDirective = "stabl:nodet"

// suppression is one parsed //stabl:nodet directive.
type suppression struct {
	file      string
	line      int
	analyzers map[string]bool // nil = all analyzers
}

type suppressionSet []suppression

// suppressions extracts every //stabl:nodet directive from the files.
func suppressions(fset *token.FileSet, files []*ast.File) suppressionSet {
	var set suppressionSet
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, nodetDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, nodetDirective)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. stabl:nodetect — not ours
				}
				if i := strings.Index(rest, "--"); i >= 0 {
					rest = rest[:i] // everything after -- is justification
				}
				var names map[string]bool
				for _, field := range strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					if names == nil {
						names = make(map[string]bool)
					}
					names[field] = true
				}
				pos := fset.Position(c.Pos())
				set = append(set, suppression{file: pos.Filename, line: pos.Line, analyzers: names})
			}
		}
	}
	return set
}

// covers reports whether any directive in the set silences d.
func (s suppressionSet) covers(d Diagnostic) bool {
	for _, sup := range s {
		if sup.file != d.Pos.Filename {
			continue
		}
		if d.Pos.Line != sup.line && d.Pos.Line != sup.line+1 {
			continue
		}
		if sup.analyzers == nil || sup.analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}
