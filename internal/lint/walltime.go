package lint

import (
	"go/ast"
	"slices"
	"strconv"
	"strings"
)

// wallClockFuncs are the package-level time functions that read or depend
// on the host clock. Types and pure arithmetic (time.Duration,
// time.Microsecond, d.Round(...)) are fine: the simulation uses
// time.Duration as its unit of virtual time.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Walltime forbids host wall-clock calls. Every simulated cost must come
// from the virtual clock (internal/sim.Clock): the paper's Table 1 and
// Figure 3 numbers are virtual-time artifacts, so one stray time.Now()
// quietly couples results to the host machine, the Go scheduler and the
// garbage collector. The analyzer runs over the whole module — command
// front-ends that deliberately report host time (ccbench's closing
// summary) carry an ignore directive with the reason spelled out.
type Walltime struct{}

// Name implements Analyzer.
func (Walltime) Name() string { return "walltime" }

// Doc implements Analyzer.
func (Walltime) Doc() string {
	return "forbid host wall-clock reads (time.Now/Since/Sleep/...); the virtual clock is the only time source"
}

// Check implements Analyzer.
func (w Walltime) Check(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		names := importNames(f, "time")
		if len(names) == 0 {
			continue
		}
		for _, name := range names {
			if name == "." {
				out = append(out, diag(pkg, w.Name(), f.Name,
					"dot-import of package time hides wall-clock calls from walltime; import it qualified"))
			}
		}
		// First pass: remember which selectors are call targets, so the
		// second pass can tell time.Now() apart from time.Now handed around
		// as a value (a callback, a field default, a func variable) — the
		// value form smuggles the host clock past a call-only check.
		callFuns := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					callFuns[sel] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !slices.Contains(names, id.Name) {
				return true
			}
			if !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			if callFuns[sel] {
				out = append(out, diag(pkg, w.Name(), sel,
					"wall-clock call time.%s contaminates virtual-time measurements; advance the sim clock instead",
					sel.Sel.Name))
			} else {
				out = append(out, diag(pkg, w.Name(), sel,
					"wall-clock func time.%s referenced as a value; whatever calls it reads the host clock",
					sel.Sel.Name))
			}
			return true
		})
	}
	return out
}

// importNames returns the local names under which a file imports the
// given path ("." for a dot-import, "_" imports are skipped).
func importNames(f *ast.File, path string) []string {
	var names []string
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		switch {
		case imp.Name == nil:
			base := p
			if i := strings.LastIndexByte(base, '/'); i >= 0 {
				base = base[i+1:]
			}
			names = append(names, base)
		case imp.Name.Name == "_":
		default:
			names = append(names, imp.Name.Name)
		}
	}
	return names
}
