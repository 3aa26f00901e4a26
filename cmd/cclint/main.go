// Command cclint runs the project's custom static-analysis suite: the
// determinism and virtual-time invariants the reproduction depends on.
//
// Usage:
//
//	cclint [-json] [-list] [-only a,b] [-taint-report file] [packages...]
//
// Packages default to ./... . Patterns follow the go tool's shape
// ("./...", "./internal/...", or plain directories); whatever the
// patterns, the whole module is loaded and type-checked so cross-package
// analyses (clockcredit, obscoverage) see every call path — patterns only
// select which packages' findings are reported. Exit status is 0 when the
// tree is clean, 1 when any finding survives (there are no warn-only
// levels), and 2 on usage or load errors.
//
// -only runs a comma-separated subset of the suite — the iteration loop
// for a single analyzer on a subtree, e.g.
//
//	cclint -only snapcover ./internal/swap
//
// Ignore directives naming unselected analyzers stay valid (the unused-
// directive hygiene check is skipped in filtered runs).
//
// -taint-report writes the dataflow engine's full source→sink flow table
// as JSON — every nondeterministic value reaching a replayable output,
// with its call chain — for CI to archive alongside the findings.
//
// Findings are suppressed one line at a time, with a mandatory reason:
//
//	start := time.Now() //cclint:ignore walltime -- host-time progress line
//
// See internal/lint for the analyzers and DESIGN.md ("Static analysis
// engine") for the call-graph machinery and why each rule exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"compcache/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run instead of the full suite")
	taintReport := flag.String("taint-report", "", "write the taint source→sink flow report to this JSON file and exit 0")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return
	}

	mod, err := lint.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	for _, terr := range mod.TypeErrors {
		fmt.Fprintln(os.Stderr, "cclint: type error:", terr)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := mod.Select(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "cclint: no Go packages matched")
		os.Exit(2)
	}

	if *taintReport != "" {
		tp := *taintReport
		if !filepath.IsAbs(tp) {
			tp = filepath.Join(mod.Root, tp)
		}
		if err := lint.WriteTaintReport(tp, mod); err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "cclint: wrote taint report to %s\n", tp)
		return
	}

	var diags []lint.Diagnostic
	if *only != "" {
		names := strings.Split(*only, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		diags, err = lint.RunOnly(pkgs, analyzers, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
	} else {
		diags = lint.Run(pkgs, analyzers)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "cclint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "cclint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
