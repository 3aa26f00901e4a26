package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapRange flags `range` over a map whose body produces ordered output:
// appending to a slice, writing through fmt, building a string, or
// accumulating a float. Go randomizes map iteration order per iteration,
// so any ordered artifact built this way differs from run to run — the
// exact shape that would break the byte-identical-at-any-j guarantee.
// Float accumulation belongs here too: float addition is not
// associative, so `for _, v := range m { sum += v }` can change the last
// bits of a mean or ratio that is diffed byte for byte between runs.
//
// The canonical deterministic patterns stay silent:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }   // ok: keys sorted below
//	sort.Strings(keys)
//
// and order-independent work (integer counting and summing, writing into
// another map, deleting entries, float accumulators local to the loop
// body) is never flagged. Whether the ranged value is a map comes from
// go/types.
type MapRange struct{}

// Name implements Analyzer.
func (MapRange) Name() string { return "maprange" }

// Doc implements Analyzer.
func (MapRange) Doc() string {
	return "flag map iteration that feeds ordered output (append/print/string build/float sum) without sorting"
}

// Check implements Analyzer.
func (m MapRange) Check(pkg *Package) []Diagnostic {
	info := pkg.Mod.Info
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					if t := info.TypeOf(rs.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							out = append(out, m.checkLoop(pkg, info, fd, rs)...)
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// checkLoop inspects one map-range body for order-dependent output.
func (m MapRange) checkLoop(pkg *Package, info *types.Info, fd *ast.FuncDecl, rs *ast.RangeStmt) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) — ordered unless x is sorted afterwards.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				if i < len(n.Lhs) {
					if dst := rootIdent(n.Lhs[i]); dst != nil && sortedLater(fd, dst.Name) {
						continue
					}
				}
				out = append(out, diag(pkg, m.Name(), call,
					"append inside map iteration captures random map order; collect and sort keys first"))
			}
			// s += expr inside a map range builds a string (or other
			// ordered accumulation over a non-commutative op).
			if n.Tok == token.ADD_ASSIGN && likelyStringConcat(n) {
				out = append(out, diag(pkg, m.Name(), n,
					"string built inside map iteration varies run to run; sort the keys first"))
			}
			if floatAccumulation(info, n, rs.Body) {
				out = append(out, diag(pkg, m.Name(), n,
					"float accumulation inside map iteration; map order is random per run — sort the keys first"))
			}
		case *ast.CallExpr:
			if name, ok := orderedOutputCall(n); ok {
				out = append(out, diag(pkg, m.Name(), n,
					"%s inside map iteration emits output in random map order; sort the keys first", name))
			}
		}
		return true
	})
	return out
}

// floatAccumulation reports whether an assignment accumulates into a
// float declared outside body — `x += v`, `x -= v`, `x *= v`, `x /= v`
// or the spelled-out `x = x + v`, through a plain variable or a field
// (st.sum += v). Accumulators declared inside body reset every iteration
// and cannot carry order dependence out of the loop.
func floatAccumulation(info *types.Info, as *ast.AssignStmt, body *ast.BlockStmt) bool {
	if len(as.Lhs) != 1 || !isFloat(info.TypeOf(as.Lhs[0])) {
		return false
	}
	var root *ast.Ident
	switch lhs := ast.Unparen(as.Lhs[0]).(type) {
	case *ast.Ident:
		root = lhs
	case *ast.SelectorExpr:
		root = rootIdent(lhs.X)
	}
	if root == nil {
		return false
	}
	v, ok := info.Uses[root].(*types.Var)
	if !ok || (v.Pos() >= body.Pos() && v.Pos() < body.End()) {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		if bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr); ok {
			switch bin.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
				return exprMentions(info, bin, v)
			}
		}
	}
	return false
}

// isFloat reports whether t's underlying type is float32 or float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprMentions reports whether expr references obj.
func exprMentions(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// orderedOutputCall recognizes calls that emit ordered output: the fmt
// printers, io.WriteString, writer/encoder methods (Write, WriteString,
// Encode, ...) and the obs exporters (WriteEventsJSONL, WriteTimeline, ...
// all match the Write prefix rule below).
func orderedOutputCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		switch id.Name {
		case "fmt":
			switch sel.Sel.Name {
			case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
				return "fmt." + sel.Sel.Name, true
			}
		case "io":
			if sel.Sel.Name == "WriteString" {
				return "io.WriteString", true
			}
		}
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo",
		"Encode", "WriteAll":
		return sel.Sel.Name, true
	}
	return "", false
}

// likelyStringConcat reports whether an ADD_ASSIGN looks like string
// building rather than numeric accumulation (numeric += is commutative
// and therefore order-independent).
func likelyStringConcat(n *ast.AssignStmt) bool {
	if len(n.Rhs) != 1 {
		return false
	}
	found := false
	ast.Inspect(n.Rhs[0], func(e ast.Node) bool {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			found = true
		}
		if call, ok := e.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fmt" && strings.HasPrefix(sel.Sel.Name, "Sprint") {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// sortedLater reports whether the function body contains a sort call over
// the named slice — sort.X(name, ...), slices.Sort*(name, ...), or a
// package-local helper whose name starts with "sort" (sortPageKeys(name)) —
// anywhere, which is the collect-then-sort idiom.
func sortedLater(fd *ast.FuncDecl, name string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			pkgID, ok := fun.X.(*ast.Ident)
			if !ok || (pkgID.Name != "sort" && pkgID.Name != "slices") {
				return true
			}
		case *ast.Ident:
			if !strings.HasPrefix(fun.Name, "sort") {
				return true
			}
		default:
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && id.Name == name {
				found = true
			}
		}
		return true
	})
	return found
}

// rootIdent returns the leftmost identifier of an expression chain
// (x, x.y, x[i], *x, &x ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
