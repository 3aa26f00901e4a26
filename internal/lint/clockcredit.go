package lint

import (
	"go/ast"
	"go/types"
)

// ClockCredit guards the cost accounting of the simulated machine: every
// exported method of internal/machine, internal/swap or internal/disk
// that transitively reaches codec work (internal/compress
// Compress/Decompress, resolved through interfaces by method-set
// matching) or device I/O (internal/disk
// Read/Write/ReadCluster/WriteCluster) must also transitively reach a
// virtual-clock charge — otherwise simulated work is happening that no
// experiment ever pays for, silently skewing Table 1 and Figure 3 while
// every test stays green.
//
// The rule walks the module-wide call graph, so credit and work are found
// however deep the chain and whichever package they live in: a machine
// method charging through a same-package helper, a swap store compressing
// through another package, and a disk primitive that forgets to charge
// its own service time are all the same check. A work primitive that
// charges itself (the real disk's Read/Write do) credits every caller.
type ClockCredit struct{}

// Name implements Analyzer.
func (ClockCredit) Name() string { return "clockcredit" }

// Doc implements Analyzer.
func (ClockCredit) Doc() string {
	return "exported machine/swap/disk methods reaching codec or device work must advance the virtual clock"
}

// clockCreditScopes are the package-path suffixes whose exported API owns
// chargeable simulation work.
var clockCreditScopes = []string{"internal/machine", "internal/swap", "internal/disk"}

// codecFuncs are the chargeable codec entry points in internal/compress.
var codecFuncs = map[string]bool{"Compress": true, "Decompress": true}

// deviceFuncs are the chargeable device entry points in internal/disk.
var deviceFuncs = map[string]bool{"Read": true, "Write": true, "ReadCluster": true, "WriteCluster": true}

// advanceOps are the virtual-clock charging calls in internal/sim.
// Advance/AdvanceTo are the clock's own methods; Wait/Schedule are the
// kernel's — on an attached clock every Advance is a kernel-mediated Wait,
// so a method reaching the kernel API directly has charged its actor's
// clock just the same.
var advanceOps = map[string]bool{"Advance": true, "AdvanceTo": true, "Wait": true, "Schedule": true}

// isChargeableWork reports whether fn is a chargeable work primitive.
func isChargeableWork(fn *types.Func) bool {
	return fnIn(fn, "internal/compress", codecFuncs) || fnIn(fn, "internal/disk", deviceFuncs)
}

// isClockAdvance reports whether fn is a virtual-clock charging call.
func isClockAdvance(fn *types.Func) bool {
	return fnIn(fn, "internal/sim", advanceOps)
}

// Check implements Analyzer.
func (c ClockCredit) Check(pkg *Package) []Diagnostic {
	if pkg.Mod == nil || pkg.Mod.Graph == nil || !inScopes(pkg.Path, clockCreditScopes) {
		return nil
	}
	g := pkg.Mod.Graph
	credited := pkg.Mod.factSet("clockcredit.credited", isClockAdvance)

	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pkg.Mod.Info.Defs[fd.Name].(*types.Func)
			if !ok || credited[fn] {
				continue
			}
			chain := g.Path(fn, isChargeableWork)
			if chain == nil {
				continue
			}
			out = append(out, diag(pkg, c.Name(), fd.Name,
				"%s does codec/device work (%s) but no call path ever advances the virtual clock; this cost is uncharged",
				fd.Name.Name, chainString(chain)))
		}
	}
	return out
}

// inScopes reports whether an import path ends in one of the suffixes.
func inScopes(path string, scopes []string) bool {
	for _, s := range scopes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}
