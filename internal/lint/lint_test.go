package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests are a hand-rolled, stdlib-only analysistest: the whole
// of testdata/src is mounted once as a pretend module named "compcache"
// (so fixture packages get import paths like
// "compcache/clockcredit/internal/machine" and can import each other),
// each fixture subtree is selected, the full analyzer suite (plus
// ignore-directive processing) runs over it, and every diagnostic must
// match a trailing
//
//	// want `regexp` [`regexp` ...]
//
// comment on its line — with unmatched wants and unexpected diagnostics
// both failing the test. Running the whole suite (not one analyzer per
// fixture) also locks in that analyzers do not fire on each other's clean
// examples.

var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureErr  error
)

// fixtureModule loads testdata/src once for the whole test binary; the
// type check of the fixture tree (and the stdlib it imports) is the
// expensive part, and every golden test shares it.
func fixtureModule(t *testing.T) *Module {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureMod, fixtureErr = LoadTree(filepath.Join("testdata", "src"), "compcache")
	})
	if fixtureErr != nil {
		t.Fatalf("LoadTree(testdata/src): %v", fixtureErr)
	}
	if len(fixtureMod.TypeErrors) > 0 {
		t.Fatalf("fixture module must type-check cleanly, got: %v", fixtureMod.TypeErrors)
	}
	return fixtureMod
}

// selectFixture resolves one fixture subtree to its loaded packages.
func selectFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	mod := fixtureModule(t)
	pkgs, err := mod.Select(".", []string{dir + "/..."})
	if err != nil {
		t.Fatalf("Select(%s): %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("Select(%s): no packages", dir)
	}
	return pkgs
}

// wantRE extracts the backquoted patterns after a "// want" marker.
var wantRE = regexp.MustCompile("`([^`]*)`")

type want struct {
	re      *regexp.Regexp
	matched bool
}

// parseWants scans a package's raw source lines for want comments.
func parseWants(t *testing.T, pkg *Package) map[string]map[int][]*want {
	t.Helper()
	wants := map[string]map[int][]*want{}
	for file, lines := range pkg.Lines {
		for i, line := range lines {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", file, i+1, m[1], err)
				}
				if wants[file] == nil {
					wants[file] = map[int][]*want{}
				}
				wants[file][i+1] = append(wants[file][i+1], &want{re: re})
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, dirs ...string) {
	t.Helper()
	var pkgs []*Package
	for _, dir := range dirs {
		pkgs = append(pkgs, selectFixture(t, dir)...)
	}
	wants := map[string]map[int][]*want{}
	for _, pkg := range pkgs {
		for file, byLine := range parseWants(t, pkg) {
			wants[file] = byLine
		}
	}

	diags := Run(pkgs, All())
	for _, d := range diags {
		found := false
		for _, w := range wants[d.File][d.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for file, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matched want `%s`", file, line, w.re)
				}
			}
		}
	}
}

func TestWalltimeGolden(t *testing.T)    { runGolden(t, "testdata/src/walltime") }
func TestGlobalRandGolden(t *testing.T)  { runGolden(t, "testdata/src/globalrand") }
func TestMapRangeGolden(t *testing.T)    { runGolden(t, "testdata/src/maprange") }
func TestIgnoreGolden(t *testing.T)      { runGolden(t, "testdata/src/ignore") }
func TestErrDropGolden(t *testing.T)     { runGolden(t, "testdata/src/errdrop") }
func TestSharedWriteGolden(t *testing.T) { runGolden(t, "testdata/src/sharedwrite") }
func TestObsCoverageGolden(t *testing.T) { runGolden(t, "testdata/src/obscoverage") }
func TestHotAllocGolden(t *testing.T)    { runGolden(t, "testdata/src/hotalloc") }
func TestBufOwnGolden(t *testing.T)      { runGolden(t, "testdata/src/bufown") }
func TestNondetGolden(t *testing.T)      { runGolden(t, "testdata/src/nondet") }
func TestKernelProtoGolden(t *testing.T) { runGolden(t, "testdata/src/kernelproto") }
func TestSnapCoverGolden(t *testing.T)   { runGolden(t, "testdata/src/snapcover") }

// The clockcredit fixture tree is one pretend module slice whose codec and
// device calls cross package boundaries; its two goldens split it so that
// together they cover every package once. TestMachineFixture runs the
// internal/machine package (same-body, helper and cross-package chains,
// plus the injected wall-clock call); TestCrossCreditGolden runs the
// device and pipeline packages it calls into, where a chain that ends in
// another package's uncharged work is the finding.
func TestMachineFixture(t *testing.T) { runGolden(t, "testdata/src/clockcredit/internal/machine") }

func TestCrossCreditGolden(t *testing.T) {
	const tree = "testdata/src/clockcredit/internal/"
	runGolden(t, tree+"compress", tree+"disk", tree+"pipeline", tree+"sim", tree+"swap")
}

// TestRetiredAnalyzerParity pins that folding crosscredit, the syntactic
// clockcredit pass and floatorder into their successors lost no positive
// case: every function that carried a want for a retired analyzer must
// still draw a finding from its successor, positioned inside the function.
func TestRetiredAnalyzerParity(t *testing.T) {
	cases := []struct {
		retired   string // analyzer the case was written for
		fixture   string // fixture subtree now holding the function
		fn        string
		successor string
	}{
		{"crosscredit", "clockcredit/internal/machine", "BadDeep", "clockcredit"},
		{"crosscredit", "clockcredit/internal/machine", "BadIface", "clockcredit"},
		{"crosscredit", "clockcredit/internal/disk", "BadCompact", "clockcredit"},
		{"crosscredit", "clockcredit/internal/swap", "BadFlush", "clockcredit"},
		{"clockcredit (syntactic)", "clockcredit/internal/machine", "BadCompress", "clockcredit"},
		{"clockcredit (syntactic)", "clockcredit/internal/machine", "BadWrite", "clockcredit"},
		{"clockcredit (syntactic)", "clockcredit/internal/machine", "BadViaHelper", "clockcredit"},
		{"floatorder", "maprange", "badSumMap", "maprange"},
		{"floatorder", "maprange", "badSpelled", "maprange"},
		{"floatorder", "sharedwrite", "badParallel", "sharedwrite"},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			pkgs := selectFixture(t, "testdata/src/"+tc.fixture)
			decl := findDecl(t, pkgs, tc.fn)
			fset := pkgs[0].Fset
			from, to := fset.Position(decl.Pos()), fset.Position(decl.End())
			for _, d := range Run(pkgs, All()) {
				if d.Analyzer == tc.successor && d.File == from.Filename &&
					d.Line >= from.Line && d.Line <= to.Line {
					return
				}
			}
			t.Errorf("%s no longer reports inside %s (a %s case); the fold lost it", tc.successor, tc.fn, tc.retired)
		})
	}
}

// findDecl returns the declaration of the named function or method among
// the packages' files.
func findDecl(t *testing.T, pkgs []*Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
					return fd
				}
			}
		}
	}
	t.Fatalf("function %s not found in the fixture", name)
	return nil
}

// TestRunOnlyFilters pins the -only semantics: only selected analyzers
// fire, ignore directives naming unselected analyzers stay valid (no
// stale-directive noise in a filtered run), and an unknown name errors
// instead of silently checking nothing.
func TestRunOnlyFilters(t *testing.T) {
	pkgs := selectFixture(t, "testdata/src/ignore")

	diags, err := RunOnly(pkgs, All(), []string{"maprange"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "walltime" {
			t.Errorf("filtered run reported unselected analyzer: %v", d)
		}
		if strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("filtered run reported a stale directive it cannot judge: %v", d)
		}
	}

	diags, err = RunOnly(pkgs, All(), []string{"walltime"})
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, d := range diags {
		if d.Analyzer == "walltime" {
			hits++
		}
	}
	if hits == 0 {
		t.Error("RunOnly(walltime) found nothing in the ignore fixture")
	}

	if _, err := RunOnly(pkgs, All(), []string{"wibble"}); err == nil {
		t.Error("RunOnly with an unknown analyzer name must error")
	}
}

// findFn resolves a function or method by fixture package path suffix and
// name, through the call graph's deterministic node order.
func findFn(t *testing.T, mod *Module, pkgSuffix, name string) *types.Func {
	t.Helper()
	for _, node := range mod.Graph.order {
		if node.Fn.Name() == name && node.Pkg != nil && pathHasSuffix(node.Pkg.Path, pkgSuffix) {
			return node.Fn
		}
	}
	t.Fatalf("function %s not found in package %s", name, pkgSuffix)
	return nil
}

// TestCallGraphInterfaceResolution pins the engine property clockcredit's
// BadIface case rests on: a call through an interface gets dynamic edges
// to the concrete methods of every implementing module type.
func TestCallGraphInterfaceResolution(t *testing.T) {
	mod := fixtureModule(t)
	apply := findFn(t, mod, "clockcredit/internal/pipeline", "Apply")
	node := mod.Graph.Node(apply)
	if node == nil {
		t.Fatal("no graph node for pipeline.Apply")
	}
	var iface, concrete bool
	for _, e := range node.Out {
		if !e.Dynamic || e.Callee.Name() != "Compress" {
			continue
		}
		switch {
		case pathHasSuffix(pkgPath(e.Callee), "clockcredit/internal/compress"):
			concrete = true
		case pathHasSuffix(pkgPath(e.Callee), "clockcredit/internal/pipeline"):
			iface = true
		}
	}
	if !iface {
		t.Error("Apply has no dynamic edge to the interface method Codec.Compress")
	}
	if !concrete {
		t.Error("Apply has no dynamic edge to the implementation compress.LZ.Compress")
	}
}

// TestCallGraphReachesAndPath pins the fact-propagation primitives the
// interprocedural analyzers are built on.
func TestCallGraphReachesAndPath(t *testing.T) {
	mod := fixtureModule(t)
	credited := mod.Graph.Reaches(isClockAdvance)

	good := findFn(t, mod, "clockcredit/internal/machine", "GoodDeep")
	if !credited[good] {
		t.Error("GoodDeep should reach a clock advance through pipeline.ProcessCharged")
	}
	bad := findFn(t, mod, "clockcredit/internal/machine", "BadDeep")
	if credited[bad] {
		t.Error("BadDeep must not reach a clock advance")
	}

	chain := mod.Graph.Path(bad, isChargeableWork)
	if len(chain) != 3 || chain[0] != bad || chain[2].Name() != "Compress" {
		t.Errorf("Path(BadDeep → codec work) = %s, want a 3-hop chain ending in Compress", chainString(chain))
	}
}

// TestMachineFixtureScope pins the two properties the acceptance criteria
// name: the fixture directory resolves to an import path ending in
// internal/machine (so walltime provably rejects a time.Now() injected
// there, and clockcredit is in scope), and the suite reports findings —
// which is exactly what makes `cclint <fixture-dir>` exit 1.
func TestMachineFixtureScope(t *testing.T) {
	pkgs := selectFixture(t, "testdata/src/clockcredit/internal/machine")
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if !strings.HasSuffix(pkg.Path, "internal/machine") {
		t.Fatalf("fixture import path %q does not end in internal/machine", pkg.Path)
	}
	diags := Run(pkgs, All())
	if len(diags) == 0 {
		t.Fatal("fixture produced no findings; cclint would exit 0 on it")
	}
	var haveWalltime, haveCredit bool
	for _, d := range diags {
		switch d.Analyzer {
		case "walltime":
			haveWalltime = true
		case "clockcredit":
			haveCredit = true
		}
	}
	if !haveWalltime {
		t.Error("no walltime finding for time.Now() injected into internal/machine")
	}
	if !haveCredit {
		t.Error("no clockcredit finding in the machine fixture")
	}
}

// TestLoadModuleNeverLoadsTestdata: the module walk must skip testdata
// (so `cclint ./...` never trips over fixtures), must not load _test.go
// files (whose golden host-time fixtures are out of scope), and pattern
// selection must resolve only against the loaded set — naming a fixture
// directory outright selects nothing.
func TestLoadModuleNeverLoadsTestdata(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	haveLint := false
	for _, pkg := range mod.Pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("module walk loaded fixture package %s", pkg.Path)
		}
		if strings.HasSuffix(pkg.Path, "internal/lint") {
			haveLint = true
		}
		for file := range pkg.Lines {
			if strings.HasSuffix(file, "_test.go") {
				t.Errorf("loaded test file %s", file)
			}
		}
	}
	if !haveLint {
		t.Error("LoadModule(.) did not load compcache/internal/lint itself")
	}
	pkgs, err := mod.Select(".", []string{"testdata/src/walltime", "./testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 0 {
		t.Errorf("selecting testdata paths matched %d packages, want 0", len(pkgs))
	}
}

// TestRunOutputSorted: diagnostics come back ordered by position so
// cclint's own output is deterministic.
func TestRunOutputSorted(t *testing.T) {
	pkgs := append(selectFixture(t, "testdata/src/walltime"), selectFixture(t, "testdata/src/errdrop")...)
	diags := Run(pkgs, All())
	if len(diags) < 2 {
		t.Fatalf("want several diagnostics to order, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}
