package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds the whole-program indexes the cross-package analyzers
// share: a call graph keyed by *types.Object (every function and method
// declaration in every local package), interface dispatch resolved over the
// set of concrete implementers in the module, the handler-path reachability
// set and a field-write index. Everything is derived deterministically:
// packages and files are walked in sorted order and memoization is
// order-independent, so diagnostics are byte-identical across runs.

type programIndex struct {
	// decls maps every function and method declared in a local package to
	// its body; owner is the package whose types.Info covers that body.
	decls map[*types.Func]*ast.FuncDecl
	owner map[*types.Func]*Package

	// named lists every named type declared in a local package, in
	// (package path, type name) order — the deterministic universe
	// interface dispatch resolves over.
	named []*types.Named

	// impl memoizes interface method → concrete implementing methods that
	// have bodies in the program, in named order.
	impl map[*types.Func][]*types.Func

	// handler marks functions reachable from a handler-shaped method (a
	// method on a type with Start/Deliver/Stop — node endpoints), i.e. code
	// that runs inside the simulation's message-delivery path.
	handler map[*types.Func]bool

	// fieldWrites records, per struct field (keyed by the first-hop field
	// object of the written selector chain), every function that assigns
	// through it outside test files.
	fieldWrites map[*types.Var][]*types.Func

	// creates memoizes, per declared function, the set of named types it
	// instantiates via composite literal — the construction sites whose
	// follow-up field writes are initialization even when the function's
	// signature hides the concrete type behind an interface.
	creates map[*types.Func]map[*types.Named]bool
}

// Index builds (once) and returns the program's cross-package indexes.
func (prog *Program) Index() *programIndex {
	prog.indexOnce.Do(func() {
		idx := &programIndex{
			decls:       make(map[*types.Func]*ast.FuncDecl),
			owner:       make(map[*types.Func]*Package),
			impl:        make(map[*types.Func][]*types.Func),
			fieldWrites: make(map[*types.Var][]*types.Func),
			creates:     make(map[*types.Func]map[*types.Named]bool),
		}
		locals := prog.Local()
		for _, pkg := range locals {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						idx.decls[obj] = fd
						idx.owner[obj] = pkg
					}
				}
			}
		}
		for _, pkg := range locals {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() { // Names() is sorted
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok {
					idx.named = append(idx.named, named)
				}
			}
		}
		prog.index = idx
		idx.buildFieldWrites(prog, locals)
		idx.handler = prog.reachableFrom(func(fn *types.Func) bool {
			sig, ok := fn.Type().(*types.Signature)
			return ok && sig.Recv() != nil && handlerShaped(sig.Recv().Type())
		})
	})
	return prog.index
}

// implementers resolves an interface method to the concrete methods in the
// program that can stand behind it at a dynamic call site: for every named
// non-interface type implementing the interface, the method of the same
// name, when its body is in a local package.
func (prog *Program) implementers(m *types.Func) []*types.Func {
	idx := prog.index
	if impls, ok := idx.impl[m]; ok {
		return impls
	}
	impls := []*types.Func{}
	sig, ok := m.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, named := range idx.named {
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					continue
				}
				ptr := types.NewPointer(named)
				if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
					continue
				}
				ms := types.NewMethodSet(ptr)
				for i := 0; i < ms.Len(); i++ {
					fn, ok := ms.At(i).Obj().(*types.Func)
					if ok && fn.Name() == m.Name() && idx.decls[fn] != nil {
						impls = append(impls, fn)
					}
				}
			}
		}
	}
	idx.impl[m] = impls
	return impls
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// reachableFrom computes the set of declared functions reachable from the
// declarations matching seed, following calls, method values and interface
// dispatch across all local packages. Marking is idempotent, so walk order
// cannot affect the resulting set.
func (prog *Program) reachableFrom(seed func(*types.Func) bool) map[*types.Func]bool {
	idx := prog.index
	marked := make(map[*types.Func]bool)
	var mark func(fn *types.Func)
	mark = func(fn *types.Func) {
		if marked[fn] {
			return
		}
		marked[fn] = true
		fd, ok := idx.decls[fn]
		if !ok {
			return
		}
		owner := idx.owner[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := owner.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if _, declared := idx.decls[callee]; declared {
				mark(callee)
			} else if isInterfaceMethod(callee) {
				for _, impl := range prog.implementers(callee) {
					mark(impl)
				}
			}
			return true
		})
	}
	for _, pkg := range prog.Local() {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && seed(fn) {
					mark(fn)
				}
			}
		}
	}
	return marked
}

// buildFieldWrites scans every local package for assignments through struct
// fields (x.f = v, x.f += v, x.f++, x.f[k] = v, x.f.g = v — every field
// selection on the left-hand side's access chain counts) and records which
// function performs each write. Test-file writes are skipped: test rigs
// poke state by design.
func (idx *programIndex) buildFieldWrites(prog *Program, locals []*Package) {
	for _, pkg := range locals {
		for _, f := range pkg.Files {
			if strings.HasSuffix(prog.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if n.Tok == token.DEFINE {
							return true
						}
						for _, lhs := range n.Lhs {
							idx.recordFieldWrites(pkg, fn, lhs)
						}
					case *ast.IncDecStmt:
						idx.recordFieldWrites(pkg, fn, n.X)
					case *ast.UnaryExpr:
						// &x.f escapes the field for arbitrary later writes.
						if n.Op == token.AND {
							idx.recordFieldWrites(pkg, fn, n.X)
						}
					}
					return true
				})
			}
		}
	}
}

// recordFieldWrites walks the written expression's access chain and records
// a write against every field selection on it, attributed to the first-hop
// field of its receiver struct (so a write through an embedded or promoted
// field counts against the outer field too).
func (idx *programIndex) recordFieldWrites(pkg *Package, fn *types.Func, lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if fv := firstHopField(sel); fv != nil {
					idx.fieldWrites[fv] = append(idx.fieldWrites[fv], fn)
				}
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.TypeAssertExpr:
			lhs = e.X
		default:
			return
		}
	}
}

// createsType reports whether fn instantiates named via a composite literal
// anywhere in its body. Such a function is a constructor of named even when
// its declared results hide the concrete type behind an interface
// (NewValidator returning chain.Validator): the writes that follow the
// literal are initialization, not post-checkpoint mutation.
func (prog *Program) createsType(fn *types.Func, named *types.Named) bool {
	idx := prog.Index()
	set, ok := idx.creates[fn]
	if !ok {
		set = make(map[*types.Named]bool)
		if fd, declared := idx.decls[fn]; declared {
			owner := idx.owner[fn]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if tv, ok := owner.Info.Types[lit]; ok {
					t := tv.Type
					if ptr, isPtr := t.(*types.Pointer); isPtr {
						t = ptr.Elem()
					}
					if nt, isNamed := t.(*types.Named); isNamed {
						set[nt] = true
					}
				}
				return true
			})
		}
		idx.creates[fn] = set
	}
	return set[named]
}

// firstHopField returns the field of the selection's receiver struct the
// access enters through: for a direct selection that is the selected field
// itself, for a promoted selection it is the embedded field.
func firstHopField(sel *types.Selection) *types.Var {
	t := sel.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	index := sel.Index()
	if len(index) == 0 || index[0] >= st.NumFields() {
		return nil
	}
	return st.Field(index[0])
}
