package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("stabl/internal/redbelly")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	imports []string // import paths of direct dependencies
}

// Program is the whole-module view one lint run analyzes: the target
// packages selected by the load patterns plus every module-local dependency,
// all parsed and type-checked through one shared FileSet and importer, so a
// *types.Func reached from two different packages is one object. That shared
// identity is what lets the cross-package indexes in callgraph.go (call
// graph, handler-path set, field writes) span package boundaries.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // analysis targets, sorted by import path

	all map[string]*Package // every local (non-stdlib) package, by import path

	indexOnce sync.Once
	index     *programIndex
}

// Local returns every local (module or fixture) package in the program —
// targets and dependencies alike — sorted by import path.
func (prog *Program) Local() []*Package {
	paths := make([]string, 0, len(prog.all))
	for path := range prog.all {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, len(paths))
	for i, path := range paths {
		pkgs[i] = prog.all[path]
	}
	return pkgs
}

// listedPackage is the subset of `go list -deps -json` output the loader
// needs. Imports drives the local-closure walk; Standard separates stdlib
// dependencies (type-checked, but never analyzed or indexed) from module
// packages.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// loader is the process-wide load cache. `go list` is the only subprocess
// the lint engine runs, and resolving import paths through it is the slow
// step of a tree-wide pass; caching the listing (and the type-checked
// packages built from it) across Load and LoadDir calls means one `go list
// -deps -json` invocation covers an entire `stabl lint ./...` run — and the
// fixture tests, which load dozens of small programs, stop re-shelling and
// re-checking the same stdlib dependency chains per fixture. The cache is
// content-blind (it assumes sources do not change mid-process), which holds
// for every caller: lint runs are one-shot processes and test binaries
// analyze a frozen tree.
var loader struct {
	mu       sync.Mutex
	fset     *token.FileSet
	cwd      string
	listed   map[string]*listedPackage // import path → listing, deps expanded
	patterns map[string][]string       // pattern-set key → target import paths
	checked  map[string]*checkedEntry  // import path → type-check result
}

type checkedEntry struct {
	types *types.Package
	pkg   *Package // nil for stdlib packages (no ASTs retained)
	err   error
}

// resetLoaderCache drops every process-wide cache. Tests use it to compare
// cold-cache and warm-cache runs; production callers never need it.
func resetLoaderCache() {
	loader.mu.Lock()
	defer loader.mu.Unlock()
	loader.fset = nil
	loader.listed = nil
	loader.patterns = nil
	loader.checked = nil
}

func loaderInitLocked() error {
	if loader.fset == nil {
		loader.fset = token.NewFileSet()
		loader.listed = make(map[string]*listedPackage)
		loader.patterns = make(map[string][]string)
		loader.checked = make(map[string]*checkedEntry)
		cwd, err := os.Getwd()
		if err != nil {
			return err
		}
		loader.cwd = cwd
	}
	return nil
}

// Load expands the package patterns with `go list` and returns a Program
// whose targets are the matched packages. Only non-test Go files are
// analyzed: test harnesses may use wall clocks and fixed seeds without
// perturbing experiment reproducibility.
//
// The loader is stdlib-only and shells out exactly once per uncached pattern
// set: a single `go list -deps -json` resolves the targets and every
// transitive dependency (standard library included), and the loader
// type-checks them itself in dependency order. Module-local dependencies
// keep their ASTs so analyzers can follow calls across package boundaries.
func Load(patterns []string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader.mu.Lock()
	defer loader.mu.Unlock()
	if err := loaderInitLocked(); err != nil {
		return nil, err
	}
	key := strings.Join(patterns, "\x00")
	targets, ok := loader.patterns[key]
	if !ok {
		listed, err := goListDeps(patterns)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if _, dup := loader.listed[lp.ImportPath]; !dup {
				loader.listed[lp.ImportPath] = lp
			}
		}
		for _, lp := range listed {
			if !lp.DepOnly && !lp.Standard {
				targets = append(targets, lp.ImportPath)
			}
		}
		sort.Strings(targets)
		loader.patterns[key] = targets
	}
	prog := &Program{Fset: loader.fset, all: make(map[string]*Package)}
	for _, path := range targets {
		pkg, err := checkLocked(path, nil)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no Go files (e.g. a directory of subpackages only)
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	for _, pkg := range prog.Pkgs {
		prog.addLocalClosure(pkg)
	}
	return prog, nil
}

// addLocalClosure records pkg and every local package reachable from it in
// prog.all.
func (prog *Program) addLocalClosure(pkg *Package) {
	if prog.all[pkg.Path] != nil {
		return
	}
	prog.all[pkg.Path] = pkg
	for _, imp := range pkg.imports {
		if dep, ok := loader.checked[imp]; ok && dep.pkg != nil {
			prog.addLocalClosure(dep.pkg)
		}
	}
}

// LoadDir parses and type-checks every .go file in dir (including _test.go
// files) as a single package with the given import path, and returns a
// Program targeting it. It backs the fixture tests: testdata packages are
// invisible to `go list`, so they are loaded straight from their directory.
// Subdirectories of dir become importable fixture packages under
// importPath/<subdir>, which is how cross-package fixtures (a root package
// calling helpers in a sibling fixture package) are expressed.
func LoadDir(dir, importPath string) (*Program, error) {
	loader.mu.Lock()
	defer loader.mu.Unlock()
	if err := loaderInitLocked(); err != nil {
		return nil, err
	}
	// Map fixture import paths to directories: the root plus every subdir
	// with Go files.
	fixtures := map[string]string{importPath: dir}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fixtures[importPath+"/"+filepath.ToSlash(rel)] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkg, err := checkLocked(importPath, fixtures)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	prog := &Program{Fset: loader.fset, Pkgs: []*Package{pkg}, all: make(map[string]*Package)}
	prog.addLocalClosure(pkg)
	return prog, nil
}

// checkLocked type-checks the package at path (resolving and checking its
// dependencies first) and returns its local Package, or nil for standard
// library packages and file-less directories. fixtures maps fixture import
// paths to directories and is threaded through dependency resolution so
// fixture packages can import sibling fixture packages.
func checkLocked(path string, fixtures map[string]string) (*Package, error) {
	if entry, ok := loader.checked[path]; ok {
		return entry.pkg, entry.err
	}
	lp, err := resolveLocked(path, fixtures)
	if err != nil {
		return nil, err
	}
	if len(lp.GoFiles) == 0 {
		loader.checked[path] = &checkedEntry{}
		return nil, nil
	}
	local := !lp.Standard
	var files []*ast.File
	mode := parser.SkipObjectResolution
	if local {
		// Comments carry //stabl:nodet suppressions and fixture `want`
		// expectations; stdlib comments are dead weight.
		mode |= parser.ParseComments
	}
	for _, name := range lp.GoFiles {
		fpath := filepath.Join(lp.Dir, name)
		if local && loader.cwd != "" && filepath.IsAbs(fpath) {
			// Diagnostics print stable, machine-independent paths.
			if rel, err := filepath.Rel(loader.cwd, fpath); err == nil && !strings.HasPrefix(rel, "..") {
				fpath = rel
			}
		}
		f, err := parser.ParseFile(loader.fset, fpath, nil, mode)
		if err != nil {
			err = fmt.Errorf("lint: %w", err)
			loader.checked[path] = &checkedEntry{err: err}
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if local {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	conf := types.Config{
		Importer:         importerFunc(func(ipath string) (*types.Package, error) { return importLocked(ipath, fixtures) }),
		FakeImportC:      true,
		IgnoreFuncBodies: !local,
	}
	tpkg, err := conf.Check(path, loader.fset, files, info)
	if err != nil {
		err = fmt.Errorf("lint: typecheck %s: %w", path, err)
		loader.checked[path] = &checkedEntry{err: err}
		return nil, err
	}
	entry := &checkedEntry{types: tpkg}
	if local {
		entry.pkg = &Package{
			Path:    path,
			Dir:     lp.Dir,
			Fset:    loader.fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
			imports: lp.Imports,
		}
	}
	loader.checked[path] = entry
	return entry.pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importLocked resolves one import for the type-checker.
func importLocked(path string, fixtures map[string]string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, err := checkLocked(path, fixtures); err != nil {
		return nil, err
	}
	entry := loader.checked[path]
	if entry.types == nil {
		return nil, fmt.Errorf("lint: import %q has no Go files", path)
	}
	return entry.types, nil
}

// resolveLocked returns the listing for one import path, consulting the
// fixture table first, then the cached `go list` results, and only shelling
// out for paths nothing has resolved yet.
func resolveLocked(path string, fixtures map[string]string) (*listedPackage, error) {
	if dir, ok := fixtures[path]; ok {
		return listFixtureDir(path, dir)
	}
	if lp, ok := loader.listed[path]; ok {
		return lp, nil
	}
	listed, err := goListDeps([]string{path})
	if err != nil {
		return nil, err
	}
	for _, lp := range listed {
		if _, dup := loader.listed[lp.ImportPath]; !dup {
			loader.listed[lp.ImportPath] = lp
		}
	}
	lp, ok := loader.listed[path]
	if !ok {
		return nil, fmt.Errorf("lint: go list did not resolve %q", path)
	}
	return lp, nil
}

// listFixtureDir builds a listing for a fixture directory: every .go file,
// test files included, with imports scanned from the sources. Fixture
// listings are cached like go-listed ones.
func listFixtureDir(path, dir string) (*listedPackage, error) {
	if lp, ok := loader.listed[path]; ok {
		return lp, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	importSet := make(map[string]bool)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		files = append(files, e.Name())
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	sort.Strings(files)
	imports := make([]string, 0, len(importSet))
	for imp := range importSet {
		imports = append(imports, imp)
	}
	sort.Strings(imports)
	lp := &listedPackage{ImportPath: path, Dir: dir, GoFiles: files, Imports: imports}
	loader.listed[path] = lp
	return lp, nil
}

// goListDeps resolves patterns to concrete packages plus their full
// transitive dependency closure, sorted by import path for deterministic
// analysis order. CGO is disabled so the listed file sets are the pure-Go
// variants the self-hosted type-checker can handle; the module itself is
// cgo-free, so only standard-library fallbacks are affected.
func goListDeps(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	dec := json.NewDecoder(&stdout)
	var listed []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		listed = append(listed, lp)
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })
	return listed, nil
}
