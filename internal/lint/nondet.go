package lint

// nondet: no nondeterministic value may flow into a replayable artifact.
// The syntactic analyzers forbid the obvious calls (walltime bans the
// host clock, globalrand the process-global source), but a value can
// still be minted legally somewhere out of scope and *flow* into an
// experiment table or an obs export — map iteration order collected into
// rows, a %p-formatted address in an event label, an env var in a CSV.
// nondet runs the dataflow/taint engine (dataflow.go) over the whole
// module and reports every source→sink flow with the deterministic
// shortest call chain, the way clockcredit prints its credit chains.
//
// Findings are positioned at the source side (the call or range that
// minted the nondeterminism, or the call whose result carries it), inside
// the function being analyzed — that is where the fix goes.

// Nondet reports nondeterministic values flowing into output sinks.
type Nondet struct{}

// Name implements Analyzer.
func (Nondet) Name() string { return "nondet" }

// Doc implements Analyzer.
func (Nondet) Doc() string {
	return "no nondeterministic value (host clock, global rand, map order, %p, env) may flow into obs exports or experiment tables"
}

// Check implements Analyzer.
func (nd Nondet) Check(pkg *Package) []Diagnostic {
	if pkg.Mod == nil || pkg.Mod.Graph == nil {
		return nil
	}
	tf := pkg.Mod.Taint()
	var out []Diagnostic
	for _, n := range pkg.Mod.Graph.order {
		if n.Pkg != pkg {
			continue
		}
		for _, h := range tf.HitsIn(n.Fn) {
			out = append(out, diag(pkg, nd.Name(), h.Node,
				"nondeterministic %s flows into %s (%s); replayable output must not depend on it",
				h.Source, h.Sink, chainString(h.Chain)))
		}
	}
	return out
}
