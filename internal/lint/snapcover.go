package lint

// snapcover: a SnapshotTo/RestoreFrom pair must cover every stored field
// of its receiver. A snapshot encoded with internal/snap (today the
// sim.Kernel pair every fleet cell cycles through) is trusted to round-trip
// the component's whole state; a field added to the kernel but never
// serialized silently drifts after restore — the snapshot "succeeds", the
// restore "succeeds", and the first divergence shows up as a diverged
// fleet schedule far from the cause. Genuinely derived or transient fields
// (wiring to sibling components, runtime state spent outside a snapshot
// boundary) opt out with a reasoned directive on the field line:
//
//	current ActorID //cclint:ignore snapcover -- runtime: no actor holds the baton at a snapshot boundary
//
// The analyzer pairs methods by shape — SnapshotTo with a parameter from
// an internal/snap package, RestoreFrom likewise — then walks everything
// reachable from each method (the helpers a deep snapshot delegates to
// count: field reads in a helper called by SnapshotTo cover the field).
// A field must be referenced on the snapshot side AND on the restore
// side; each missing side is its own finding, positioned at the field
// declaration so the directive lands where the fix belongs.
// Function-typed fields are exempt — a callback cannot be serialized,
// so a directive there would carry no information.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SnapCover reports struct fields missed by a SnapshotTo/RestoreFrom pair.
type SnapCover struct{}

// Name implements Analyzer.
func (SnapCover) Name() string { return "snapcover" }

// Doc implements Analyzer.
func (SnapCover) Doc() string {
	return "every stored field of a SnapshotTo/RestoreFrom type must be serialized, restored, or carry a reasoned ignore"
}

// Check implements Analyzer.
func (sc SnapCover) Check(pkg *Package) []Diagnostic {
	if pkg.Mod == nil || pkg.Mod.Graph == nil {
		return nil
	}
	var out []Diagnostic
	for _, pair := range snapPairs(pkg) {
		st, ok := pair.recv.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		snapRefs := fieldsReachedFrom(pkg.Mod, pair.snapshot)
		restRefs := fieldsReachedFrom(pkg.Mod, pair.restore)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			// Function-typed fields (hooks, callbacks, frame sources) can
			// never be serialized; requiring an ignore there would say
			// nothing. Everything else must be covered or explained.
			if _, isFunc := f.Type().Underlying().(*types.Signature); isFunc {
				continue
			}
			if !snapRefs[f] {
				out = append(out, diagPos(pkg, sc.Name(), f.Pos(),
					"field %s.%s is never written by %s; snapshot it or mark it //cclint:ignore snapcover -- <reason>",
					pair.recv.Obj().Name(), f.Name(), pair.snapshot.Name()))
			}
			if !restRefs[f] {
				out = append(out, diagPos(pkg, sc.Name(), f.Pos(),
					"field %s.%s is never restored by %s; restore it or mark it //cclint:ignore snapcover -- <reason>",
					pair.recv.Obj().Name(), f.Name(), pair.restore.Name()))
			}
		}
	}
	return out
}

// snapPair is one type with both halves of the persistence contract.
type snapPair struct {
	recv     *types.Named
	snapshot *types.Func
	restore  *types.Func
}

// snapPairs finds the package's types carrying both SnapshotTo and
// RestoreFrom with an internal/snap parameter, in declaration order.
func snapPairs(pkg *Package) []snapPair {
	var out []snapPair
	scope := pkg.Types.Scope()
	// Scope iteration order is sorted by name, which is deterministic;
	// findings are re-sorted by position at the Run level anyway.
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		snap := snapMethod(named, "SnapshotTo")
		rest := snapMethod(named, "RestoreFrom")
		if snap != nil && rest != nil {
			out = append(out, snapPair{recv: named, snapshot: snap, restore: rest})
		}
	}
	return out
}

// snapMethod returns the named type's method with the given name if its
// first parameter comes from an internal/snap package.
func snapMethod(named *types.Named, name string) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != name {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() == 0 {
			return nil
		}
		if n, ok := deref(sig.Params().At(0).Type()).(*types.Named); ok {
			if p := n.Obj().Pkg(); p != nil && pathHasSuffix(p.Path(), "internal/snap") {
				return m
			}
		}
		return nil
	}
	return nil
}

// fieldsReachedFrom walks the bodies of every module function reachable
// from the method and collects each struct field it references — plain
// selections, composite-literal keys, and methods promoted from embedded
// fields all count.
func fieldsReachedFrom(mod *Module, from *types.Func) map[*types.Var]bool {
	g := mod.Graph
	refs := make(map[*types.Var]bool)
	seen := map[*types.Func]bool{from: true}
	frontier := []*types.Func{from}
	for len(frontier) > 0 {
		var next []*types.Func
		for _, fn := range frontier {
			n := g.Node(fn)
			if n == nil {
				continue
			}
			if n.Decl != nil && n.Decl.Body != nil {
				collectFieldRefs(mod.Info, n.Decl.Body, refs)
			}
			for _, e := range n.Out {
				if !seen[e.Callee] {
					seen[e.Callee] = true
					next = append(next, e.Callee)
				}
			}
		}
		frontier = next
	}
	return refs
}

// collectFieldRefs records every struct field referenced in a body.
func collectFieldRefs(info *types.Info, body ast.Node, refs map[*types.Var]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s, ok := info.Selections[n]; ok {
				// Record every field on the selection path: x.embedded.f
				// covers the embedded field too, as does a promoted
				// method call x.m() reached through it. For method
				// selections the final index names the method, not a
				// field, so it is skipped.
				idxs := s.Index()
				if s.Kind() != types.FieldVal {
					idxs = idxs[:len(idxs)-1]
				}
				t := s.Recv()
				for _, idx := range idxs {
					st, ok := deref(t).Underlying().(*types.Struct)
					if !ok {
						break
					}
					f := st.Field(idx)
					refs[f] = true
					t = f.Type()
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					refs[v] = true
				}
			}
		}
		return true
	})
}

// diagPos is diag for findings anchored to a position rather than a
// node — snapcover points at field declarations, which analyzers do not
// hold AST nodes for.
func diagPos(pkg *Package, name string, p token.Pos, format string, args ...any) Diagnostic {
	pos := pkg.Fset.Position(p)
	return Diagnostic{
		Analyzer: name,
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}
