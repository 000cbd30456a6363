package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapshotFields verifies Snapshot/Restore completeness: for every struct
// type with the snapshot.Forkable shape (a Snapshot() method with one result
// and a Restore(state) method with one parameter, declared on the type or
// promoted from an embedded state struct), every mutable field must be
// referenced by both methods. A field is mutable when some
// function in the program assigns through it (x.f = v, x.f++, x.f[k] = v, a
// write through a promoted path, or &x.f escaping) after construction —
// writes inside test files, inside constructors (functions whose results
// include the type) and inside the type's own Snapshot*/Restore* methods do
// not count. "References" is deliberately weaker than "deep-copies": a
// selection of the field counts, a whole-struct copy (`v.state = …`,
// `*s = …`, `c := *s`) counts for every field of the copied struct, and an
// embedded state whose own Snapshot/Restore are promoted counts as covered.
// The repo's Forkables keep their mutable fields in one embedded state
// struct (see package snapshot), so what the analyzer catches is the silent
// killer that pattern leaves open — a field added *beside* the state,
// mutated by the protocol, and never seen by Snapshot at all, which breaks
// fork-vs-replay byte-identity without failing any golden until a scenario
// happens to exercise it.
//
// Deliberately-volatile fields (caches safe to lose across a fork, like the
// overlay dupemaps) opt out per field:
//
//	dupes map[string]bool //stabl:nodet snapshot-fields -- best-effort cache, rebuilt on demand
var SnapshotFields = &Analyzer{
	Name: "snapshot-fields",
	Doc:  "mutable field of a Forkable struct missed by its Snapshot or Restore method",
	Run:  runSnapshotFields,
}

func runSnapshotFields(p *Pass) {
	idx := p.Prog.Index()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				p.checkForkableType(idx, named)
			}
		}
	}
}

// checkForkableType verifies one candidate type: if it has the Forkable
// method shape and a struct underlying, every mutable field must be
// referenced by both Snapshot and Restore.
func (p *Pass) checkForkableType(idx *programIndex, named *types.Named) {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	methods := types.NewMethodSet(types.NewPointer(named))
	snap, snapVia := forkableMethod(methods, named, st, "Snapshot", 0, 1)
	restore, restoreVia := forkableMethod(methods, named, st, "Restore", 1, 0)
	if snap == nil || restore == nil {
		return
	}
	snapRefs := p.Prog.fieldRefs(snap, st)
	restoreRefs := p.Prog.fieldRefs(restore, st)
	if snapVia != nil {
		snapRefs[snapVia] = true
	}
	if restoreVia != nil {
		restoreRefs[restoreVia] = true
	}
	advice := "copy it in Snapshot and write it back in Restore"
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Embedded() && snapRefs[f] && restoreRefs[f] {
			advice = "move it into `" + f.Name() + "`"
			break
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if !p.fieldMutable(idx, named, field) {
			continue
		}
		missSnap := !snapRefs[field]
		missRestore := !restoreRefs[field]
		if !missSnap && !missRestore {
			continue
		}
		var miss string
		switch {
		case missSnap && missRestore:
			miss = "Snapshot or Restore"
		case missSnap:
			miss = "Snapshot"
		default:
			miss = "Restore"
		}
		p.Reportf(field.Pos(),
			"field %s of %s is mutated after construction but never referenced by (%s).%s; a fork silently loses its state — %s, or justify with //stabl:nodet snapshot-fields",
			field.Name(), named.Obj().Name(), named.Obj().Name(), miss, advice)
	}
}

// fieldMutable reports whether some function in the program writes through
// the field outside construction and checkpoint plumbing.
func (p *Pass) fieldMutable(idx *programIndex, named *types.Named, field *types.Var) bool {
	for _, fn := range idx.fieldWrites[field] {
		if isConstructorOf(fn, named) || p.Prog.createsType(fn, named) {
			continue
		}
		if recv := methodReceiverNamed(fn); recv == named &&
			(strings.HasPrefix(fn.Name(), "Snapshot") || strings.HasPrefix(fn.Name(), "Restore")) {
			continue
		}
		return true
	}
	return false
}

// forkableMethod returns the method of the given name and arity in methods,
// *named's method set, or nil. A method promoted from an embedded field of st
// counts as the type's own; via is then that field.
func forkableMethod(methods *types.MethodSet, named *types.Named, st *types.Struct, name string, params, results int) (m *types.Func, via *types.Var) {
	sel := methods.Lookup(named.Obj().Pkg(), name)
	if sel == nil {
		return nil, nil
	}
	m, _ = sel.Obj().(*types.Func)
	sig, ok := sel.Type().(*types.Signature)
	if m == nil || !ok || sig.Params().Len() != params || sig.Results().Len() != results {
		return nil, nil
	}
	if index := sel.Index(); len(index) > 1 {
		via = st.Field(index[0])
	}
	return m, via
}

// methodReceiverNamed returns the named receiver type of fn, nil for
// package-level functions.
func methodReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isConstructorOf reports whether fn's results include named or *named —
// the New*/build* functions whose field writes are initialization, not
// post-checkpoint mutation. Constructors that return the value behind an
// interface (NewValidator returning chain.Validator) are caught by
// Program.createsType instead.
func isConstructorOf(fn *types.Func, named *types.Named) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		t := results.At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if t == named.Obj().Type() {
			return true
		}
	}
	return false
}

// fieldRefs collects the fields of st referenced anywhere in the body of
// method — or of any same-package function it transitively calls (helpers
// like clone and copySeries). A reference through a promoted path credits
// the first-hop field, mirroring the write index; an assignment that copies
// a whole st value references every field.
func (prog *Program) fieldRefs(method *types.Func, st *types.Struct) map[*types.Var]bool {
	idx := prog.Index()
	refs := make(map[*types.Var]bool)
	seen := make(map[*types.Func]bool)
	var walk func(fn *types.Func)
	walk = func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		fd, ok := idx.decls[fn]
		if !ok {
			return
		}
		owner := idx.owner[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Rhs {
					if t := owner.Info.TypeOf(e); t != nil && t.Underlying() == st {
						for i := 0; i < st.NumFields(); i++ {
							refs[st.Field(i)] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if sel, ok := owner.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if fv := firstHopField(sel); fv != nil {
						refs[fv] = true
					}
				}
			case *ast.Ident:
				if callee, ok := owner.Info.Uses[n].(*types.Func); ok && callee.Pkg() == fn.Pkg() {
					if _, declared := idx.decls[callee]; declared {
						walk(callee)
					}
				}
			}
			return true
		})
	}
	walk(method)
	// Keep only fields of st: helpers touch other structs too.
	for fv := range refs {
		found := false
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fv {
				found = true
				break
			}
		}
		if !found {
			delete(refs, fv)
		}
	}
	return refs
}
