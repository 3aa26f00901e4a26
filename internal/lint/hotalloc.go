package lint

// hotalloc: no steady-state allocation may be reachable from the paging
// hot path. PR 6 made the fault-service path allocation-free and proved
// it with testing.AllocsPerRun on the entry points; hotalloc is the
// static half of that contract. It walks the call graph forward from the
// hot roots — machine.PageIn/PageOut, core.Cache.Insert, and every codec
// Compress/Decompress matching the (dst, src []byte) contract shape —
// along non-cold edges (error and panic paths are excluded, matching
// what AllocsPerRun exercises) and reports every steady-state allocation
// site in every function it reaches, with the call chain from the root,
// the way clockcredit prints its credit chains.
//
// Warm sites (pooled buffers growing to working capacity, map writes,
// sync.Pool refills) are allowed: they amortize to zero, which is what
// the dynamic tests measure after warm-up. An intentional steady
// allocation (e.g. the first touch of a sparse platter block) takes a
// line-level //cclint:ignore hotalloc directive with a written reason.

// HotAlloc reports steady-state allocations reachable from the paging
// and compression hot path.
type HotAlloc struct{}

// Name implements Analyzer.
func (HotAlloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (HotAlloc) Doc() string {
	return "no steady-state allocation reachable from PageIn/PageOut/Cache.Insert or a codec"
}

// Check implements Analyzer.
func (HotAlloc) Check(pkg *Package) []Diagnostic {
	facts := pkg.Mod.Effects()
	chains := facts.HotChains()
	var out []Diagnostic
	for _, n := range pkg.Mod.Graph.order {
		if n.Pkg != pkg {
			continue
		}
		chain, hot := chains[n.Fn]
		if !hot {
			continue
		}
		fe := facts.Of(n.Fn)
		for _, site := range fe.Sites {
			if site.Class != SiteSteady {
				continue
			}
			out = append(out, diag(pkg, "hotalloc", site.Node,
				"hot path %s: %s allocates in steady state", chainString(chain), site.What))
		}
	}
	return out
}
