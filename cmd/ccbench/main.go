// Command ccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ccbench -list
//	ccbench [-scale small|paper] [-run name1,name2,...] [-j N] [-format text|csv]
//
// Every experiment is registered under a stable name (see -list); -run
// accepts exact names, the group names "ablations" and "extensions", and
// "all". -fault-rate restricts the "faults" sweep to one rate.
//
// Each experiment prints the same rows or series the paper reports; the
// paper's published values are included alongside where applicable (Table 1)
// so the shape comparison is immediate. At the paper scale the full suite
// takes a few minutes of host time; the virtual-time measurements themselves
// are deterministic.
//
// -j caps how many simulated machines run concurrently: 0 (the default)
// uses one worker per core, 1 forces serial execution. Every machine runs
// on its own virtual clock with its own cloned workload, so the output is
// byte-for-byte identical at any -j.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"compcache/internal/exp"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small or paper")
	runFlag := flag.String("run", "", "comma-separated experiment names (see -list); groups: ablations, extensions, all")
	listFlag := flag.Bool("list", false, "list registered experiment names and exit")
	format := flag.String("format", "text", "output format for tables: text or csv")
	jobs := flag.Int("j", 0, "max concurrent simulated machines (0 = one per core, 1 = serial); output is identical at any value")
	faultRate := flag.Float64("fault-rate", -1, "restrict the fault sweep to a single rate (plus the fault-free baseline); default sweeps the built-in rates")
	hostTiming := flag.Bool("host-timing", false, "measure host-clock columns (codec sweep ns/op); nondeterministic, off by default")
	tracePath := flag.String("trace", "", "write a machine-readable JSONL trace of trace-capable experiments (ext/fleet-sweep) to this file")
	flag.Parse()

	if *listFlag {
		for _, name := range exp.Names() {
			fmt.Println(name)
		}
		return
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "ccbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	var scale exp.Scale
	switch *scaleFlag {
	case "small":
		scale = exp.Small
	case "paper":
		scale = exp.Paper
	default:
		fmt.Fprintf(os.Stderr, "ccbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	selection := *runFlag
	if selection == "" {
		selection = "all"
	}
	experiments, err := exp.Resolve(strings.Split(selection, ","))
	if err != nil {
		// Bad selection is a usage error (exit 2), like a bad flag value.
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(2)
	}
	if len(experiments) == 0 {
		fmt.Fprintf(os.Stderr, "ccbench: nothing selected by %q\n", selection)
		os.Exit(2)
	}

	opts := exp.DefaultOptions(scale)
	opts.Parallelism = *jobs
	opts.FaultRate = *faultRate
	opts.HostTiming = *hostTiming
	opts.TracePath = *tracePath

	emit := func(tab *exp.Table) {
		if *format == "csv" {
			fmt.Printf("# %s\n%s\n", tab.Title, tab.CSV())
			return
		}
		fmt.Println(tab)
	}

	ctx := context.Background()
	start := time.Now() //cclint:ignore walltime -- deliberate host-time reading: the closing line reports how long the suite took on this machine, never a simulated cost
	for _, e := range experiments {
		res, err := e.Run(ctx, opts)
		fatal(err)
		for _, tab := range res.Tables() {
			emit(tab)
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond) //cclint:ignore walltime -- deliberate host-time reading: the summary is explicitly labelled "(host time)" in the output
	fmt.Printf("ccbench: %d experiment(s) at %s scale in %v (host time)\n",
		len(experiments), scale, elapsed)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
}
