package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"compcache/internal/exp"
	"compcache/internal/machine"
	"compcache/internal/obs"
	"compcache/internal/stats"
	"compcache/internal/workload"
)

// tinySpec is a one-run workload small enough for unit tests: a thrasher
// on a 256 KB compression-cache machine.
func tinySpec() *workloadSpec {
	w := &workload.Thrasher{Pages: 192, Write: true, Passes: 40, CompressTarget: 0.5, Seed: 7}
	return &workloadSpec{name: "tiny", seed: 7, runs: []run{{
		name: "thrasher", newSpan: "machine.New",
		build: func() (exec, error) {
			m, err := machine.New(machine.Default(256 << 10).WithCC())
			if err != nil {
				return nil, err
			}
			return func(t *tracer) (outcome, error) {
				if _, err := t.span("Workload.Run", func() error { return w.Run(m) }); err != nil {
					return outcome{}, err
				}
				return newOutcome("thrasher", []stats.Run{m.Stats()}, nil, 0)
			}, nil
		},
	}}}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
	Workload []struct{ Name string } `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

// The program must print exactly the metrics BENCHMARK.json declares, and
// metrics.json must say which layer each belongs to.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	byName := func(x struct{ Name string }) string { return x.Name }

	plain, err := measure(tinySpec(), &checker{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &checker{}
	traced, err := measureTraced(tinySpec(), c, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if c.failed != 0 {
		t.Fatalf("traced run failed: %v", c.msgs)
	}
	if got, want := sortedKeys(plain.metrics), names(b.EndToEnd, byName); !slices.Equal(got, want) {
		t.Errorf("untraced metrics %v, BENCHMARK.json end_to_end %v", got, want)
	}
	if got, want := sortedKeys(traced.metrics), names(b.PerLayer, byName); !slices.Equal(got, want) {
		t.Errorf("traced metrics %v, BENCHMARK.json per_layer %v", got, want)
	}
	want := slices.Clone(workloadNames)
	sort.Strings(want)
	if got := names(b.Workload, byName); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, workloadNames)
	}

	data, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Metrics map[string]struct{ Layer, Moves string } `json:"metrics"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	all := append(names(b.EndToEnd, byName), names(b.PerLayer, byName)...)
	sort.Strings(all)
	if got := sortedKeys(meta.Metrics); !slices.Equal(got, all) {
		t.Errorf("metrics.json describes %v, BENCHMARK.json has %v", got, all)
	}
}

// Every workload's default seed has a recorded digest for each of its runs.
func TestDigestsRecordedForDefaultSeeds(t *testing.T) {
	d, err := loadDigests("digests.json", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := d.lookup(w.name, w.seed)
		for _, r := range w.runs {
			if got[r.name] == "" {
				t.Errorf("%s seed %d: no digest for %s", w.name, w.seed, r.name)
			}
		}
		if len(got) != len(w.runs) {
			t.Errorf("%s seed %d: %d digests for %d runs", w.name, w.seed, len(got), len(w.runs))
		}
	}
}

func TestCheckerFailsChangedDigests(t *testing.T) {
	c := &checker{want: map[string]string{"a": "1", "b": "2"}}
	c.check("a", "1", nil)
	c.check("b", "9", nil) // differs from the recorded digest
	c.check("a", "1", nil)
	if c.attempted != 3 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}

	c = &checker{} // no recorded digests: repetitions still agree
	c.check("a", "1", nil)
	c.check("a", "2", nil)
	if c.failed != 1 {
		t.Fatalf("a repetition with another digest did not fail: %+v", c)
	}
}

func TestAttribute(t *testing.T) {
	samples := []profSample{
		// A stdlib leaf counts toward its innermost module caller.
		{ns: 10, run: "r1", frames: []string{"hash/crc32.Update", "compcache/internal/core.Checksum", "compcache/internal/machine.(*Machine).PageOut"}},
		{ns: 20, run: "r1", frames: []string{"compcache/internal/compress.lzHash", "compcache/internal/compress.LZRW1.Compress", "compcache/internal/machine.(*Machine).PageOut"}},
		{ns: 30, run: "r2", frames: []string{"compcache/internal/compress.LZRW1.Decompress", "compcache/internal/machine.(*Machine).decompressInto"}},
		{ns: 40, frames: []string{"runtime.gcBgMarkWorker"}},
		{ns: 50, run: "r2", frames: []string{"math/rand.(*Rand).Read", "main.appPopulate", "compcache/internal/cluster.(*Cluster).Go.func1"}},
		{ns: 60, run: "r2", frames: []string{"compcache/internal/policy.(*Allocator).Pick", "main.runPass"}},
	}
	a := attribute(samples)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"core": 10, "compress": 50, "runtime": 40, "workload": 50, "other": 60}
	for l, ns := range want {
		if a.layers[l] != ns {
			t.Errorf("layer %s: %d ns, want %d", l, a.layers[l], ns)
		}
	}
	if a.compressNs != 20 || a.decompressNs != 30 {
		t.Errorf("codec directions %d/%d, want 20/30", a.compressNs, a.decompressNs)
	}
	if a.modules["policy"] != 60 || a.runs["r2"] != 140 || a.runs[""] != 40 {
		t.Errorf("modules %v runs %v", a.modules, a.runs)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := now(); now().Sub(start) < d; n++ {
	}
	return n
}

// parseProfile reads what runtime/pprof writes: CPU time, stacks and labels.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("run", "spin"), func(context.Context) {
		spinForProfile(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin int64
	for _, s := range samples {
		if s.run == "spin" && slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasSuffix(f, ".spinForProfile") }) {
			spin += s.ns
		}
	}
	if spin < int64(100*time.Millisecond) {
		t.Fatalf("profile shows %v in spinForProfile under label run=spin, want most of 300ms", time.Duration(spin))
	}
}

func TestQuantile(t *testing.T) {
	b := mergeBuckets(nil, []obs.Bucket{{Le: 2 * time.Millisecond, Count: 98}, {Le: -1, Count: 1}})
	b = mergeBuckets(b, []obs.Bucket{{Le: time.Millisecond, Count: 0}, {Le: 5 * time.Millisecond, Count: 1}})
	if got := quantile(b, 0.98); got != 2*time.Millisecond {
		t.Errorf("p98 %v, want 2ms", got)
	}
	if got := quantile(b, 0.99); got != 5*time.Millisecond {
		t.Errorf("p99 %v, want 5ms", got)
	}
	if got := quantile(b, 1); got != -1 {
		t.Errorf("p100 %v, want the overflow bucket (-1)", got)
	}
}

// The fleet workload replicates ext/fleet-sweep's cell program; its counts
// must match the experiment's table, row by row.
func TestFleetRunsMatchExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet grid twice")
	}
	tab, err := exp.FleetSweep(fleetMemory>>20, fleetPages, fleetSeed, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload("fleet_sweep", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(w.runs) {
		t.Fatalf("experiment has %d cells, workload %d", len(tab.Rows), len(w.runs))
	}
	for i, r := range w.runs {
		out, _, err := (&tracer{}).measureRun(r)
		if err != nil {
			t.Fatal(err)
		}
		var ct counts
		ct.add(out)
		row := tab.Rows[i]
		got := []string{strings.Join(row[:3], "/"), fmt.Sprint(ct.vm.Faults), fmt.Sprint(ct.vm.RemoteIns), fmt.Sprint(ct.server.Ops)}
		if want := []string{r.name, row[3], row[4], row[5]}; !slices.Equal(got, want) {
			t.Errorf("cell %d: workload %v, experiment %v", i, got, want)
		}
	}
}
