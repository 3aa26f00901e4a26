// Command ccsim runs one workload on a configurable simulated machine and
// prints the statistics block — the interactive way to explore the
// compression cache's behaviour.
//
// Usage:
//
//	ccsim [-mem MB] [-cc] [-codec name] [-workload name] [flags...]
//
// Workloads: thrasher_ro, thrasher_rw, compare, isca, sort_random,
// sort_partial, gold_create, gold_cold, gold_warm.
//
// Examples:
//
//	ccsim -workload thrasher_rw -mem 6 -size 20        # paper Figure 3 point
//	ccsim -workload compare -mem 8 -cc                 # best-case app
//	ccsim -workload sort_random -mem 8 -cc             # worst-case app
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"compcache/internal/compress"
	"compcache/internal/fault"
	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/swap"
	"compcache/internal/workload"
)

func main() {
	memMB := flag.Int("mem", 6, "user memory in MB")
	useCC := flag.Bool("cc", false, "enable the compression cache")
	codec := flag.String("codec", "lzrw1", "compression codec ("+strings.Join(compress.Names(), ", ")+")")
	name := flag.String("workload", "thrasher_rw", "workload to run")
	sizeMB := flag.Int("size", 12, "working-set size in MB (thrasher, sort, compare scale)")
	passes := flag.Int("passes", 2, "thrasher passes")
	seed := flag.Int64("seed", 1, "workload random seed")
	partialIO := flag.Bool("partialio", false, "allow sub-block backing-store transfers (ablation)")
	span := flag.Bool("span", false, "let compressed pages span file blocks (ablation)")
	crashAt := flag.Uint64("crash-at-write", 0, "cut power at the Nth device write, reboot from the torn media and report recovery (arms the durable store formats)")
	eventsOut := flag.String("events", "", "export the run's observability events as JSONL to this file ('-' = stdout); with -crash-at-write, exports the reboot's recovery events")
	flag.Parse()
	if _, err := compress.Lookup(*codec); err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(2)
	}

	cfg := machine.Default(int64(*memMB) << 20)
	if *useCC {
		cfg = cfg.WithCC()
		cfg.CC.Codec = *codec
	}
	cfg.FS.AllowPartialIO = *partialIO
	cfg.Swap.SpanBlocks = *span
	if *crashAt > 0 {
		if !*useCC {
			// The baseline's direct swap has no recoverable layout; crash
			// testing the baseline means paging into the durable LFS.
			cfg = cfg.WithLFS(swap.LFSConfig{Durable: true})
		}
		// Explicit rather than relying on the injector's auto-arming, so the
		// fault-free reboot configuration reads the same media format.
		cfg.Swap.CommitRecords = true
		cfg = cfg.WithFaults(fault.Config{Seed: *seed, CrashAtWrite: *crashAt})
	}

	pages := int32(*sizeMB << 20 / 4096)
	var w workload.Workload
	switch *name {
	case "thrasher_ro":
		w = &workload.Thrasher{Pages: pages, Write: false, Passes: *passes, Seed: *seed}
	case "thrasher_rw":
		w = &workload.Thrasher{Pages: pages, Write: true, Passes: *passes, Seed: *seed}
	case "compare":
		// Size the band matrix to about sizeMB.
		band := 1024
		n := *sizeMB << 20 / band
		w = &workload.Compare{N: n, Band: band, Seed: *seed}
	case "isca":
		w = &workload.CacheSim{CPUs: 8, Sets: 2048, Ways: 2,
			AddrWords: uint64(*sizeMB) << 20 / 8, BlockWordsList: []int{4, 16, 64},
			Refs: 1 << 20, Seed: *seed}
	case "sort_random":
		w = &workload.Sort{Bytes: int64(*sizeMB) << 20, Mode: workload.SortRandom, Seed: *seed}
	case "sort_partial":
		w = &workload.Sort{Bytes: int64(*sizeMB) << 20, Mode: workload.SortPartial, Seed: *seed}
	case "gold_create", "gold_cold", "gold_warm":
		phase := workload.GoldCreate
		switch *name {
		case "gold_cold":
			phase = workload.GoldCold
		case "gold_warm":
			phase = workload.GoldWarm
		}
		msgs := *sizeMB << 20 / (32 * 8 * 2) // index ~= sizeMB
		w = &workload.Gold{Messages: msgs, WordsPerMessage: 32, VocabWords: 16000,
			Queries: msgs / 3, Phase: phase, Seed: *seed}
	default:
		fmt.Fprintf(os.Stderr, "ccsim: unknown workload %q\n", *name)
		os.Exit(2)
	}

	var opts []machine.Option
	if *eventsOut != "" {
		opts = append(opts, machine.WithObs(obs.Options{}))
	}
	mode := "baseline (no compression cache)"
	if *useCC {
		mode = fmt.Sprintf("compression cache on (%s)", *codec)
	}
	if *crashAt > 0 {
		runCrash(cfg, w, *memMB, mode, *crashAt, *eventsOut, opts)
		return
	}

	m, st, err := workload.MeasureMachine(cfg, w, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
	exportEvents(*eventsOut, m)
	fmt.Printf("workload %s on %d MB, %s\n\n", w.Name(), *memMB, mode)
	fmt.Print(st)
}

// exportEvents writes the machine's retained event window as JSONL; "" is
// off, "-" is stdout.
func exportEvents(path string, m *machine.Machine) {
	if path == "" {
		return
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := obs.WriteEventsJSONL(out, m.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
}

// runCrash runs the workload until the armed power cut fires, reboots a
// machine from the torn media image, verifies the recovery, and prints the
// recovery report plus the rebooted machine's view of the store.
func runCrash(cfg machine.Config, w workload.Workload, memMB int, mode string, crashAt uint64, eventsOut string, opts []machine.Option) {
	m, _, err := workload.MeasureMachine(cfg, w, opts...)
	if err != nil && !fault.IsCrash(err) {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
	if m == nil || m.Introspect().Injector == nil || !m.Introspect().Injector.Crashed() {
		fmt.Fprintf(os.Stderr, "ccsim: the run finished before device write %d; crash earlier\n", crashAt)
		os.Exit(1)
	}
	fmt.Printf("workload %s on %d MB, %s\n", w.Name(), memMB, mode)
	fmt.Printf("power cut at device write %d, %v into the run\n\n", crashAt, m.Elapsed())

	reboot := cfg
	reboot.Faults = nil
	reborn, err := machine.NewFromMedia(reboot, m.FS.Image(), opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsim: reboot failed:", err)
		os.Exit(1)
	}
	exportEvents(eventsOut, reborn)
	fmt.Println("reboot:", reborn.Introspect().Recovery)
	stores, rebornStores := m.Introspect(), reborn.Introspect()
	switch {
	case stores.Clustered != nil:
		err = rebornStores.Clustered.VerifyRecovery(stores.Clustered)
	case stores.LFS != nil:
		err = rebornStores.LFS.VerifyRecovery(stores.LFS)
	default:
		err = fmt.Errorf("no recoverable store")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsim: recovery verification FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("recovery verified: no acknowledged-durable page lost, no torn fragment served")
}
