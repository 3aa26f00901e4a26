package lint

import (
	"go/ast"
	"slices"
)

// GlobalRand forbids the process-global math/rand source and unseeded
// constructions. Every experiment must be byte-identical at any -j
// (PR 1's guarantee), so all randomness has to flow from an explicit seed
// the way internal/trace and internal/workload already do:
//
//	rng := rand.New(rand.NewSource(seed))
//
// Flagged:
//   - any call through the package-level source: rand.Intn, rand.Shuffle,
//     rand.Float64, rand.Seed, ... (their stream is shared, goroutine-
//     interleaving-dependent, and auto-seeded since Go 1.20);
//   - rand.New(rand.NewSource(expr)) where expr is a computed value such
//     as time.Now().UnixNano() rather than a constant, parameter or field.
type GlobalRand struct{}

// Name implements Analyzer.
func (GlobalRand) Name() string { return "globalrand" }

// Doc implements Analyzer.
func (GlobalRand) Doc() string {
	return "forbid the global math/rand source; randomness must come from rand.New(rand.NewSource(seed)) with an explicit seed"
}

// randConstructors are the math/rand package-level names that do not touch
// the global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Check implements Analyzer.
func (g GlobalRand) Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		names := append(importNames(f, "math/rand"), importNames(f, "math/rand/v2")...)
		if len(names) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !slices.Contains(names, id.Name) {
				return true
			}
			fn := sel.Sel.Name
			switch {
			case !randConstructors[fn] && ast.IsExported(fn):
				out = append(out, diag(pkg, g.Name(), call,
					"rand.%s uses the process-global source; thread a seeded *rand.Rand instead", fn))
			case fn == "New" && len(call.Args) == 1:
				if src, ok := call.Args[0].(*ast.CallExpr); ok {
					if s, ok := src.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "NewSource" && len(src.Args) == 1 {
						if !explicitSeed(src.Args[0]) {
							out = append(out, diag(pkg, g.Name(), src.Args[0],
								"rand.NewSource seed must be a constant, parameter or field, not a computed value"))
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// explicitSeed reports whether an expression is an acceptable seed: a
// literal, an identifier (constant, parameter, local), a field selector,
// arithmetic over those, or a basic integer conversion of one. Function
// calls — time.Now().UnixNano() being the canonical offender — are not.
func explicitSeed(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return true
	case *ast.ParenExpr:
		return explicitSeed(e.X)
	case *ast.UnaryExpr:
		return explicitSeed(e.X)
	case *ast.BinaryExpr:
		return explicitSeed(e.X) && explicitSeed(e.Y)
	case *ast.CallExpr:
		// Allow conversions like int64(seed); a conversion has exactly one
		// argument and a bare type name as its operand.
		if id, ok := e.Fun.(*ast.Ident); ok && len(e.Args) == 1 {
			switch id.Name {
			case "int", "int32", "int64", "uint", "uint32", "uint64":
				return explicitSeed(e.Args[0])
			}
		}
		return false
	default:
		return false
	}
}
