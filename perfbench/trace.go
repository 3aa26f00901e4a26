package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one run
// share Run; Parent indexes the enclosing span, -1 for a run's root.
type span struct {
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the benchmark's calls into the layers. When on it also keeps
// every call as a span, in memory until the run ends, and labels each run's
// profile samples with its workload and name.
type tracer struct {
	on       bool
	workload string
	t0       time.Time
	run      int
	parent   int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{on: true, workload: workload, t0: now(), parent: -1}
}

// span times fn and, when tracing, records it under the current span.
func (t *tracer) span(name string, fn func() error) (time.Duration, error) {
	start := now()
	if !t.on {
		err := fn()
		return now().Sub(start), err
	}
	idx, parent := len(t.spans), t.parent
	t.spans = append(t.spans, span{Run: t.run, Name: name, Parent: parent, Start: start.Sub(t.t0).Nanoseconds()})
	t.parent = idx
	err := fn()
	end := now()
	t.parent = parent
	t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start), err
}

// measureRun builds and executes one run, returning its outcome and the
// host time its construction took.
func (t *tracer) measureRun(r run) (out outcome, setup time.Duration, err error) {
	body := func() error {
		var ex exec
		setup, err = t.span(r.newSpan, func() error {
			var err error
			ex, err = r.build()
			return err
		})
		if err != nil {
			return err
		}
		out, err = ex(t)
		return err
	}
	if !t.on {
		err = body()
		return out, setup, err
	}
	pprof.Do(context.Background(), pprof.Labels("workload", t.workload, "run", r.name), func(context.Context) {
		_, err = t.span(r.name, body)
	})
	return out, setup, err
}

// spanSeconds sums the durations of the spans called name.
func (t *tracer) spanSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// Layers reported as X.host_s. Modules of compcache/internal outside this
// list are summed into other.host_s; the report file has each of them.
var layers = []string{
	"compress", "vm", "mem", "machine", "core", "swap", "fs", "disk",
	"sim", "netdev", "cluster", "obs", "workload", "runtime", "bench", "other",
}

// measureTraced is the traced run: untraced passes for half the budget, then
// traced passes under a CPU profile for the other half. The traced passes'
// digests are checked against the untraced ones like any other repetition.
func measureTraced(w *workloadSpec, c *checker, budget time.Duration, outDir string) (result, error) {
	plain := runPasses(w, c, &tracer{}, budget/2)

	t := newTracer(w.name)
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	traced := runPasses(w, c, t, budget/2)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	gc1 := gcCPUSeconds()

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	a := attribute(p)
	if err := a.check(); err != nil {
		return result{}, err
	}

	n := float64(len(traced))
	perPass := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	perOp := func(ns int64, ops uint64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(ns) / n / float64(ops)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ct := traced[len(traced)-1].counts
	var r result
	for _, l := range layers {
		r.add(l+".host_s", perPass(a.layers[l]), "s")
	}
	r.add("compress.ns_per_compress", perOp(a.compressNs, ct.comp.Compressions), "ns")
	r.add("compress.ns_per_decompress", perOp(a.decompressNs, ct.comp.Decompressions), "ns")
	r.add("compress.compressions", float64(ct.comp.Compressions), "count")
	r.add("compress.decompressions", float64(ct.comp.Decompressions), "count")
	r.add("compress.wasted_frac", ratio(ct.comp.Incompressible, ct.comp.Compressions), "frac")
	r.add("compress.ratio", ratio(ct.comp.CompressibleOut, ct.comp.CompressibleIn), "frac")
	r.add("vm.ns_per_ref", perOp(a.layers["vm"], ct.vm.Refs), "ns")
	r.add("vm.refs", float64(ct.vm.Refs), "count")
	r.add("vm.faults", float64(ct.vm.Faults), "count")
	r.add("vm.cc_hits", float64(ct.vm.CacheHits), "count")
	r.add("vm.swap_ins", float64(ct.vm.SwapIns), "count")
	r.add("vm.remote_ins", float64(ct.vm.RemoteIns), "count")
	r.add("vm.evictions", float64(ct.vm.Evictions), "count")
	r.add("vm.fault_service_p99_virt", max(quantile(ct.faultService, 0.99), 0).Seconds(), "virt_s")
	r.add("machine.new_s", t.spanSeconds("machine.New")/n, "s")
	r.add("core.hit_rate", ratio(ct.cc.Hits, ct.cc.Hits+ct.cc.Misses), "frac")
	r.add("core.inserts", float64(ct.cc.Inserts), "count")
	r.add("core.clean_writes", float64(ct.cc.CleanWrites), "count")
	r.add("core.mid_reclaims", float64(ct.cc.MidReclaims), "count")
	r.add("swap.gcs", float64(ct.swap.GCs), "count")
	r.add("swap.gc_bytes_copied", float64(ct.swap.GCBytesCopied), "bytes")
	r.add("swap.pages_out", float64(ct.swap.PagesOut), "count")
	r.add("swap.pages_in", float64(ct.swap.PagesIn), "count")
	r.add("disk.reads", float64(ct.disk.Reads), "count")
	r.add("disk.writes", float64(ct.disk.Writes), "count")
	r.add("disk.seeks", float64(ct.disk.Seeks), "count")
	r.add("disk.busy_virt_s", ct.disk.BusyTime.Seconds(), "virt_s")
	r.add("disk.queue_wait_virt_s", ct.diskWait.Seconds(), "virt_s")
	r.add("netdev.retries", float64(ct.disk.Retries), "count")
	r.add("net.queue_wait_virt_s", ct.netWait.Seconds(), "virt_s")
	r.add("cluster.new_s", t.spanSeconds("cluster.New")/n, "s")
	r.add("cluster.snapshot_cycle_s", t.spanSeconds("SnapshotCycle")/n, "s")
	r.add("cluster.server_ops", float64(ct.server.Ops), "count")
	r.add("cluster.tier_hit_rate", ratio(ct.server.TierHits, ct.server.TierHits+ct.server.TierMiss), "frac")
	r.add("cluster.forwards", float64(ct.server.Forwards), "count")
	r.add("cluster.demotions", float64(ct.server.Demotions), "count")
	r.add("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/n, "MB")
	r.add("runtime.gc_cpu_s", (gc1-gc0)/n, "s")
	r.add("trace.cpu_s", perPass(a.total), "s")
	plainPass, tracedPass := passSeconds(plain), passSeconds(traced)
	r.add("trace.overhead_frac", tracedPass/plainPass-1, "frac")

	r.printf("untraced pass %.4f s (fastest runs of %d passes), traced pass %.4f s (of %d)", plainPass, len(plain), tracedPass, len(traced))
	r.printf("profiled CPU per pass %.4f s; host_s by layer:", perPass(a.total))
	for _, l := range layers {
		r.printf("  %-9s %8.4f s  %5.1f%%", l, perPass(a.layers[l]), 100*float64(a.layers[l])/float64(max(a.total, 1)))
	}

	modules := make(map[string]float64, len(a.modules))
	for _, m := range sortedKeys(a.modules) {
		modules[m] = perPass(a.modules[m])
	}
	runs := make(map[string]float64, len(a.runs))
	for _, name := range sortedKeys(a.runs) {
		runs[name] = perPass(a.runs[name])
	}
	report := struct {
		Workload     string             `json:"workload"`
		Seed         int64              `json:"seed"`
		Passes       int                `json:"traced_passes"`
		ModuleHostS  map[string]float64 `json:"module_host_s"`
		RunHostS     map[string]float64 `json:"run_host_s"`
		RunDigests   map[string]string  `json:"run_digests"`
		Spans        []span             `json:"spans"`
		ProfileBytes int                `json:"profile_bytes"`
	}{w.name, w.seed, len(traced), modules, runs, c.first, t.spans, prof.Len()}
	base := fmt.Sprintf("%s-seed%d", w.name, w.seed)
	if err := writeJSON(outDir, base+".trace.json", report); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(outDir, base+".pprof"), prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	r.printf("spans, per-run host time and module breakdown: %s", filepath.Join(outDir, base+".trace.json"))
	return r, nil
}

// passSeconds is a pass with every run at its fastest, as pass_s takes it.
func passSeconds(ps []pass) float64 {
	var total time.Duration
	for _, d := range fastestRuns(ps) {
		total += d
	}
	return total.Seconds()
}

// gcCPUSeconds is the runtime's estimate of CPU time spent on garbage
// collection so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
