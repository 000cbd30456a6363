package lint

import (
	"go/ast"
	"go/types"
)

// GlobalRand flags randomness that bypasses the per-stream seed derivation
// (sim.Scheduler.RNGSeed and its Context.RNG wrapper). Two shapes:
//
//   - math/rand top-level functions (rand.Intn, rand.Shuffle, ...), which
//     draw from the process-global source: seeded from entropy, shared
//     across goroutines, and invisible to the experiment seed.
//   - rand.NewSource (or rand.New(rand.NewSource(...))) with a constant
//     seed, which silently couples two call sites into the same stream and
//     makes adding a consumer perturb every existing one — the exact
//     failure mode named stream derivation exists to prevent.
//
// Test files are exempt: a fixed seed in a test is the point of the test.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "math/rand global source or constant rand.NewSource seeds outside tests",
	Run:  runGlobalRand,
}

func runGlobalRand(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				fn, ok := p.Info.Uses[n].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				path := fn.Pkg().Path()
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				if receiverTypeName(fn) != "" || !globalRandFns[fn.Name()] {
					return true
				}
				if p.IsTestFile(n.Pos()) {
					return true
				}
				p.Reportf(n.Pos(),
					"rand.%s draws from the process-global math/rand source; derive a named stream instead (sim.Scheduler.RNG / simnet.Context.RNG)",
					fn.Name())
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				path := fn.Pkg().Path()
				if (path != "math/rand" && path != "math/rand/v2") || fn.Name() != "NewSource" {
					return true
				}
				if len(n.Args) != 1 {
					return true
				}
				tv, ok := p.Info.Types[n.Args[0]]
				if !ok || tv.Value == nil { // seed is not a compile-time constant
					return true
				}
				if p.IsTestFile(n.Pos()) {
					return true
				}
				p.Reportf(n.Pos(),
					"rand.NewSource(%s) pins a constant seed outside the per-stream derivation; thread sim.Scheduler.RNGSeed (or a spec-provided seed) through instead",
					tv.Value.String())
			}
			return true
		})
	}
}

// globalRandFns is every math/rand (and v2) top-level function that draws
// from the process-global source. rand.New, NewSource, NewZipf take an
// explicit source and are fine.
var globalRandFns = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions
	"N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
}

// receiverTypeName returns the named type of fn's receiver ("" for
// package-level functions), with any pointer indirection stripped.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
