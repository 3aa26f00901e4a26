package lint

import (
	"bytes"
	"fmt"
	"go/types"
	"strings"
	"sync"
	"testing"

	"compcache/internal/compress"
)

// fxEffects resolves the inferred facts for one function of the effects
// unit fixture (testdata/src/effects).
func fxEffects(t *testing.T, name string) *FnEffects {
	t.Helper()
	mod := fixtureModule(t)
	fe := mod.Effects().Of(findFn(t, mod, "effects", name))
	if fe == nil {
		t.Fatalf("no effect facts for %s", name)
	}
	return fe
}

// TestEffectsPerAllocationKind pins the classification of every
// allocation kind the engine recognizes, one fixture function each.
func TestEffectsPerAllocationKind(t *testing.T) {
	cases := []struct {
		fn       string
		want     Effects // exact summary
		whatSub  string  // substring of the first site's What ("" = no sites)
		numSites int
	}{
		{"CompositeLit", AllocSteady, "literal", 1},
		{"AppendFresh", AllocSteady, "append to out", 1},
		{"AppendParam", AllocWarm, "append to dst", 1},
		{"StringConv", AllocSteady, "conversion", 1},
		{"Boxing", AllocSteady, "boxed into interface argument", 1},
		{"Closure", AllocSteady, "escaping closure", 1},
		{"MapWrite", AllocWarm, "map write to m", 1},
		{"Clean", 0, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			fe := fxEffects(t, tc.fn)
			if fe.Summary != tc.want {
				t.Errorf("%s summary = {%s}, want {%s}", tc.fn, fe.Summary, tc.want)
			}
			if len(fe.Sites) != tc.numSites {
				t.Fatalf("%s has %d sites, want %d", tc.fn, len(fe.Sites), tc.numSites)
			}
			if tc.numSites > 0 && !strings.Contains(fe.Sites[0].What, tc.whatSub) {
				t.Errorf("%s site %q does not mention %q", tc.fn, fe.Sites[0].What, tc.whatSub)
			}
		})
	}
}

// TestEffectsFixedPointConverges: mutual recursion must terminate and
// both functions must end up with the allocating summary.
func TestEffectsFixedPointConverges(t *testing.T) {
	for _, name := range []string{"Ping", "Pong"} {
		if fe := fxEffects(t, name); !fe.Summary.Has(AllocSteady) {
			t.Errorf("%s summary = {%s}, want allocates (propagated through the cycle)", name, fe.Summary)
		}
	}
	// Ping itself has no local allocation site; its steadiness is purely
	// the propagated fixed point.
	if fe := fxEffects(t, "Ping"); fe.Local.Has(AllocSteady) {
		t.Error("Ping has a local steady site; the fixture should only inherit one from Pong")
	}
}

// TestCallGraphCycleTerminates: Reaches and Path over a mutually
// recursive pair must terminate and produce the deterministic chain.
func TestCallGraphCycleTerminates(t *testing.T) {
	mod := fixtureModule(t)
	ping := findFn(t, mod, "effects", "Ping")
	pong := findFn(t, mod, "effects", "Pong")

	reach := mod.Graph.Reaches(func(fn *types.Func) bool { return fn == pong })
	if !reach[ping] {
		t.Error("Reaches lost Ping → Pong inside the cycle")
	}
	chain := mod.Graph.Path(ping, func(fn *types.Func) bool { return fn == pong })
	if len(chain) != 2 || chain[0] != ping || chain[1] != pong {
		t.Errorf("Path(Ping → Pong) = %s, want the direct 2-hop chain", chainString(chain))
	}
	// Determinism: the same query answers identically on repeat.
	for i := 0; i < 3; i++ {
		again := mod.Graph.Path(ping, func(fn *types.Func) bool { return fn == pong })
		if len(again) != len(chain) || again[0] != chain[0] || again[1] != chain[1] {
			t.Fatalf("Path is not deterministic: %s vs %s", chainString(again), chainString(chain))
		}
	}
}

// realModule loads the actual compcache module once for the whole test
// binary (shared by the codec cross-check and the tree-clean test).
var (
	realOnce sync.Once
	realMod  *Module
	realErr  error
)

func realModule(t *testing.T) *Module {
	t.Helper()
	realOnce.Do(func() { realMod, realErr = LoadModule(".") })
	if realErr != nil {
		t.Fatalf("LoadModule(.): %v", realErr)
	}
	return realMod
}

// findCodecMethod resolves the concrete Compress/Decompress method of a
// registered codec by receiver type name.
func findCodecMethod(t *testing.T, mod *Module, recv, name string) *types.Func {
	t.Helper()
	for _, n := range mod.Graph.order {
		if n.Fn.Name() != name || n.Pkg == nil || !pathHasSuffix(n.Pkg.Path, "internal/compress") {
			continue
		}
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Name() == recv {
			return n.Fn
		}
	}
	t.Fatalf("codec method %s.%s not found in internal/compress", recv, name)
	return nil
}

// TestCodecStaticDynamicAllocAgreement cross-checks the two proofs for
// every registered codec: the effect engine must statically infer no
// steady-state allocation for the concrete Compress/Decompress (which
// is what keeps hotalloc quiet), and testing.AllocsPerRun must
// dynamically measure zero once pools are warm. A disagreement in
// either direction is a soundness or precision bug worth failing on.
func TestCodecStaticDynamicAllocAgreement(t *testing.T) {
	mod := realModule(t)
	facts := mod.Effects()
	const pageSize = 4096
	page := bytes.Repeat([]byte("static dynamic agreement "), pageSize/25+1)[:pageSize]

	for _, name := range compress.Names() {
		c, err := compress.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		recv := strings.TrimPrefix(strings.TrimPrefix(fmt.Sprintf("%T", c), "*"), "compress.")
		t.Run(name, func(t *testing.T) {
			// Static half: both contract methods are recognized roots with
			// no steady allocation anywhere in their summaries.
			for _, meth := range []string{"Compress", "Decompress"} {
				fn := findCodecMethod(t, mod, recv, meth)
				if !codecContract(fn) {
					t.Errorf("%s.%s does not match the codec contract shape", recv, meth)
				}
				if sum := facts.Of(fn).Summary; sum.Has(AllocSteady) {
					t.Errorf("%s.%s statically allocates in steady state ({%s}); hotalloc and AllocsPerRun disagree", recv, meth, sum)
				}
			}
			// Dynamic half, mirroring TestCodecZeroAllocs' warm-up.
			comp := make([]byte, 0, c.MaxCompressedSize(pageSize))
			plain := make([]byte, 0, pageSize)
			comp = c.Compress(comp[:0], page)
			if n := testing.AllocsPerRun(50, func() {
				comp = c.Compress(comp[:0], page)
			}); n != 0 {
				t.Errorf("Compress dynamically allocates %v/run; the static proof says zero", n)
			}
			if n := testing.AllocsPerRun(50, func() {
				out, err := c.Decompress(plain[:0], comp)
				if err != nil {
					t.Fatal(err)
				}
				plain = out[:0]
			}); n != 0 {
				t.Errorf("Decompress dynamically allocates %v/run; the static proof says zero", n)
			}
		})
	}
}

// TestHotAllocTreeClean locks the tree-wide invariant: the real tree has
// zero unignored findings under the full twelve-analyzer suite —
// in particular no steady-state allocation on the paging hot path.
// (The full suite must run so ignore directives for the other
// analyzers resolve; a partial suite would misread them as unknown.)
func TestHotAllocTreeClean(t *testing.T) {
	mod := realModule(t)
	for _, d := range Run(mod.Pkgs, All()) {
		t.Errorf("unexpected finding on the real tree: %v", d)
	}
}

// BenchmarkLintModule measures full-module cclint wall time: load,
// type-check, call graph, effect inference, and all twelve analyzers — the
// pass the CI wall-time budget gate times against .cclint-lint-budget.
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mod, err := LoadModule(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := mod.Select(".", []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(pkgs, All()); len(diags) > 0 {
			b.Fatalf("tree not clean under benchmark: %d findings", len(diags))
		}
	}
}
