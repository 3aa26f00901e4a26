// Command perfbench is compcache's host-time benchmark. It runs one
// workload's simulated machines (or fleet cells) serially, pass after pass,
// for a fixed host-time budget, and prints the end-to-end metrics as one
// JSON line. Every run's virtual-time results are hashed and checked against
// the digests recorded in digests.json and against the other passes of the
// same invocation, so a change that only speeds up the simulator must leave
// every simulated statistic identical.
//
// With -trace 1 it first measures untraced passes, then traced passes under
// a CPU profile it starts itself, and prints the per-layer metrics instead:
// host self-time per compcache/internal module, the layers' own counters and
// the tracing overhead. The traced run's spans, per-run host time and full
// module breakdown are written to -out when it exits.
//
// Build and run it through run.py, which builds it from source inside the
// checkout:
//
//	python3 perfbench/run.py --workload table1_cc --seed 42 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRounds is how many times a run builds every machine or fleet of one
// pass, to take setup_s as a median: one round is under a millisecond on
// Table 1 and swings with the heap's state.
const setupRounds = 41

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 0, "input seed (0 = the experiment's own: 42 for Table 1, 1 for the fleet)")
	seconds := flag.Float64("seconds", 10, "host seconds to spend on measured passes (at least one pass runs)")
	traceMode := flag.Int("trace", 0, "1 = traced run: per-layer metrics from a CPU profile and spans")
	digestsPath := flag.String("digests", "perfbench/digests.json", "recorded virtual-result digests")
	record := flag.Bool("record", false, "store this invocation's digests in -digests instead of checking them")
	outDir := flag.String("out", ".bench_build/perfbench/out", "directory for the traced run's spans and profile")
	flag.Parse()
	// Runs are serial, so one P is all a pass can use. It keeps the fleet
	// kernel's baton hand-offs and the collector on one thread instead of
	// waking a second CPU for them.
	runtime.GOMAXPROCS(1)

	w, err := newWorkload(*name, *seed)
	if err != nil {
		fail(2, err)
	}
	recorded, err := loadDigests(*digestsPath, *record)
	if err != nil {
		fail(1, err)
	}
	c := &checker{}
	if !*record {
		c.want = recorded.lookup(w.name, w.seed)
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceMode == 0 {
		res, err = measure(w, c, budget)
	} else {
		res, err = measureTraced(w, c, budget, *outDir)
	}
	if err != nil {
		fail(1, err)
	}
	if *record {
		recorded.store(w.name, w.seed, c.first)
		if err := recorded.save(*digestsPath); err != nil {
			fail(1, err)
		}
	}

	fmt.Printf("workload %s seed %d: %d runs per pass, GOMAXPROCS %d; recorded digests: %v\n",
		w.name, w.seed, len(w.runs), runtime.GOMAXPROCS(0), c.want != nil)
	for _, line := range res.lines {
		fmt.Println(line)
	}
	fmt.Printf("failed_frac  %.4f  (%d of %d runs failed)\n", c.failedFrac(), c.failed, c.attempted)
	for _, msg := range c.msgs {
		fmt.Println("FAIL", msg)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{c.failed == 0, c.attempted, c.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(line))
	if c.failed != 0 {
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(code)
}

// now reads the host clock: host time is what this command measures.
func now() time.Time {
	return time.Now() //cclint:ignore walltime -- the benchmark measures host time by design; no reading reaches a simulated cost, a probe or a table
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports: the JSON metrics and the
// human-readable lines printed before them.
type result struct {
	metrics map[string]metric
	lines   []string
}

func (r *result) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// measure is the untraced run: passes until the budget is spent, then the
// set-up rounds, reporting the end-to-end metrics.
//
// pass_s and slowest_run_s take each run at its fastest over the passes. On
// a shared host, neighbours contending for the caches and memory bus slow a
// run for seconds at a time and never speed it up, so a run's fastest time
// is its own cost and its median is partly the host's load. The median pass
// is printed alongside.
func measure(w *workloadSpec, c *checker, budget time.Duration) (result, error) {
	passes := runPasses(w, c, &tracer{}, budget)
	// Read the peak before the set-up rounds, which hold off the collector.
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}
	setups, err := setupTimes(w)
	if err != nil {
		return result{}, err
	}
	var r result
	totals, inPass := make([]float64, len(passes)), make([]float64, len(passes))
	for i, p := range passes {
		totals[i], inPass[i] = p.total.Seconds(), p.setup.Seconds()
	}
	passS := passSeconds(passes)
	var slowest float64
	var slowestName string
	for i, d := range fastestRuns(passes) {
		if d.Seconds() > slowest {
			slowest, slowestName = d.Seconds(), w.runs[i].name
		}
	}
	r.add("pass_s", passS, "s")
	r.add("slowest_run_s", slowest, "s")
	r.add("setup_s", median(setups), "s")
	r.add("peak_rss_mb", rss, "MB")
	r.printf("pass_s       %.4f s  (every run at its fastest of %d passes; median pass %.4f s%s)", passS, len(passes), median(totals), tailNote(totals))
	r.printf("slowest_run_s %.4f s  (%s at its fastest of %d passes)", slowest, slowestName, len(passes))
	r.printf("setup_s      %.6f s  (median of %d set-up rounds; %.6f s inside the passes)", median(setups), len(setups), median(inPass))
	r.printf("peak_rss_mb  %.1f MB", rss)
	return r, nil
}

// fastestRuns returns each run's fastest host time over the passes, in the
// workload's run order.
func fastestRuns(passes []pass) []time.Duration {
	out := slices.Clone(passes[0].runs)
	for _, p := range passes[1:] {
		for i, d := range p.runs {
			out[i] = min(out[i], d)
		}
	}
	return out
}

// setupTimes builds every machine or fleet of one pass setupRounds times
// and returns each round's host time. Each round starts from a collected
// heap with the collector held off, so a round times construction itself
// (mostly allocating and zeroing simulated memory), not whichever
// collection cycle its garbage happens to trigger; that cost shows in
// pass_s and runtime.gc_cpu_s.
func setupTimes(w *workloadSpec) ([]float64, error) {
	out := make([]float64, setupRounds)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := range out {
		runtime.GC()
		start := now()
		for _, r := range w.runs {
			if _, err := r.build(); err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
		}
		out[i] = now().Sub(start).Seconds()
	}
	return out, nil
}

// pass is the host-time record of one pass over a workload's runs.
type pass struct {
	total, setup time.Duration
	runs         []time.Duration // each run's host time, in run order
	counts       counts
}

// runPasses runs passes until the next one would overrun the budget,
// always at least one.
func runPasses(w *workloadSpec, c *checker, t *tracer, budget time.Duration) []pass {
	var passes []pass
	start := now()
	var longest time.Duration
	for {
		p := runPass(w, c, t, len(passes))
		passes = append(passes, p)
		longest = max(longest, p.total)
		if now().Sub(start)+longest > budget {
			return passes
		}
	}
}

func runPass(w *workloadSpec, c *checker, t *tracer, index int) pass {
	p := pass{runs: make([]time.Duration, len(w.runs))}
	for i, r := range w.runs {
		t.run = index*len(w.runs) + i
		// Runs are independent: each starts from a collected heap, so one
		// run's garbage neither slows the next nor decides the peak RSS.
		runtime.GC()
		start := now()
		out, setup, err := t.measureRun(r)
		d := now().Sub(start)
		c.check(r.name, out.digest, err)
		p.total += d
		p.setup += setup
		p.runs[i] = d
		p.counts.add(out)
	}
	return p
}

// tailNote names the highest percentile with at least ten samples beyond
// it, once there are enough samples for one.
func tailNote(xs []float64) string {
	n := len(xs)
	if n <= 10 {
		return ""
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("; p%d %.4f s", 100*(n-10)/n, s[n-11])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSS reads the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// digestFile holds the recorded virtual-result digests: workload, then
// seed, then run name. A change that deliberately alters the simulated
// model re-records them (-record) in its own reviewed diff.
type digestFile map[string]map[string]map[string]string

// loadDigests reads the recorded digests; a missing file is an error unless
// the invocation is about to record one.
func loadDigests(path string, record bool) (digestFile, error) {
	data, err := os.ReadFile(path)
	if record && os.IsNotExist(err) {
		return digestFile{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	d := digestFile{}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("digests: %s: %w", path, err)
	}
	return d, nil
}

func (d digestFile) lookup(workload string, seed int64) map[string]string {
	return d[workload][strconv.FormatInt(seed, 10)]
}

func (d digestFile) store(workload string, seed int64, runs map[string]string) {
	if d[workload] == nil {
		d[workload] = make(map[string]map[string]string)
	}
	d[workload][strconv.FormatInt(seed, 10)] = runs
}

func (d digestFile) save(path string) error {
	return writeJSON(filepath.Dir(path), filepath.Base(path), d)
}
