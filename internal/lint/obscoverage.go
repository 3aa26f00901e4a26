package lint

import (
	"go/ast"
	"go/types"
)

// ObsCoverage keeps the observability layer honest as code grows.
//
// PR 4's contract is that traces tell the whole story: every virtual-time
// cost a subsystem charges shows up on its bus as an event, a counter or
// a histogram sample. The contract erodes one innocent method at a time —
// someone adds an exported entry point that advances the clock, forgets
// the probe, and from then on traced runs under-report that subsystem
// forever while every test stays green.
//
// The rule, enforced over the module-wide call graph: in an
// obs-instrumented package (one of the paged/charged subsystems that
// imports internal/obs), an exported function or method that transitively
// advances the virtual clock must also transitively reach a probe —
// (*obs.Bus).Emit, (*obs.Counter).Add/Inc, (*obs.Gauge).Set or
// (*obs.Histogram).Observe. Charging through a callee that probes (disk
// I/O reached via swap, say) satisfies the rule; a genuinely
// probe-free-by-design method carries an ignore directive with the reason
// written down.
type ObsCoverage struct{}

// Name implements Analyzer.
func (ObsCoverage) Name() string { return "obscoverage" }

// Doc implements Analyzer.
func (ObsCoverage) Doc() string {
	return "exported clock-advancing methods in obs-instrumented packages must reach an obs probe (or carry an ignore with a reason)"
}

// obsScopes are the instrumented subsystems. internal/obs itself is not
// listed: probes do not need probes.
var obsScopes = []string{
	"internal/vm", "internal/core", "internal/swap", "internal/disk",
	"internal/netdev", "internal/machine", "internal/fault",
}

// probeFuncs are the obs methods that constitute a probe.
var probeFuncs = map[string]bool{
	"Emit": true, "Add": true, "Inc": true, "Set": true, "Observe": true,
}

// isObsProbe reports whether fn records something on an obs bus.
func isObsProbe(fn *types.Func) bool {
	return fnIn(fn, "internal/obs", probeFuncs)
}

// Check implements Analyzer.
func (o ObsCoverage) Check(pkg *Package) []Diagnostic {
	if pkg.Mod == nil || pkg.Mod.Graph == nil || !inScopes(pkg.Path, obsScopes) {
		return nil
	}
	if !importsObs(pkg) {
		return nil // not instrumented (yet); nothing to cover
	}
	advances := pkg.Mod.factSet("obscoverage.advances", isClockAdvance)
	probes := pkg.Mod.factSet("obscoverage.probes", isObsProbe)

	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pkg.Mod.Info.Defs[fd.Name].(*types.Func)
			if !ok || !advances[fn] || probes[fn] {
				continue
			}
			out = append(out, diag(pkg, o.Name(), fd.Name,
				"%s advances the virtual clock but no call path reaches an obs probe; traced runs under-report this work", fd.Name.Name))
		}
	}
	return out
}

// importsObs reports whether any file of the package imports a package
// whose path ends in internal/obs.
func importsObs(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if pathHasSuffix(importLiteral(imp), "internal/obs") {
				return true
			}
		}
	}
	return false
}
