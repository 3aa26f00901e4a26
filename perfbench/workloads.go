package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"compcache/internal/cluster"
	"compcache/internal/exp"
	"compcache/internal/machine"
	"compcache/internal/netdev"
	"compcache/internal/obs"
	"compcache/internal/stats"
	"compcache/internal/workload"
)

// Workloads, in the order run.py runs them. Why each was chosen:
//
//   - table1_cc: the seven small-scale Table 1 applications on the 1 MB
//     compression-cache machine. The paper's mechanism and most host time
//     live here: the LZRW1 codec in both directions, core.Cache, and the
//     clustered swap cleaner and GC; sort_random feeds it incompressible
//     pages.
//   - table1_std: the same applications and inputs on the baseline machine.
//     No codec runs, so host time is the vm walk, mem.Pool and fs/disk. It
//     is the bypass workload for codec, core and swap changes.
//   - fleet_sweep: the small-scale ext/fleet-sweep grid. The only workload
//     that runs sim.Kernel, netdev, the cluster page server and migration,
//     obs probes and FPC, with the codec mix inverted: populate compresses,
//     verify decompresses.
var workloadNames = []string{"table1_cc", "table1_std", "fleet_sweep"}

// Default seeds are the experiments' own.
const (
	table1Seed = 42
	fleetSeed  = 1
)

type workloadSpec struct {
	name string
	seed int64
	runs []run
}

// run is one simulated machine or one fleet cell: the unit a pass times,
// checks and digests. build is its set-up (machine.New or cluster.New); the
// exec it returns drives the built machine to its result.
type run struct {
	name    string
	newSpan string
	build   func() (exec, error)
}

type exec func(t *tracer) (outcome, error)

// outcome is a run's deterministic result.
type outcome struct {
	digest string
	stats  []stats.Run // one per machine
	server cluster.ServerStats
}

func newWorkload(name string, seed int64) (*workloadSpec, error) {
	switch name {
	case "table1_cc", "table1_std":
		if seed == 0 {
			seed = table1Seed
		}
		runs, err := table1Runs(seed, name == "table1_cc")
		return &workloadSpec{name, seed, runs}, err
	case "fleet_sweep":
		if seed == 0 {
			seed = fleetSeed
		}
		return &workloadSpec{name, seed, fleetRuns(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// table1Runs is Table 1 at small scale, in the paper's row order, with every
// application's input drawn from seed.
func table1Runs(seed int64, cc bool) ([]run, error) {
	opts := exp.DefaultTable1Options(exp.Small)
	cfg := machine.Default(int64(opts.MemoryMB) << 20)
	if cc {
		cfg = cfg.WithCC()
	}
	var runs []run
	for _, w := range opts.Workloads {
		w, err := reseed(w, seed)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run{name: w.Name(), newSpan: "machine.New", build: func() (exec, error) {
			m, err := machine.New(cfg)
			if err != nil {
				return nil, err
			}
			return func(t *tracer) (outcome, error) {
				if _, err := t.span("Workload.Run", func() error { return workload.Clone(w).Run(m) }); err != nil {
					return outcome{}, err
				}
				if err := m.Err(); err != nil {
					return outcome{}, err
				}
				if _, err := t.span("CheckInvariants", m.CheckInvariants); err != nil {
					return outcome{}, err
				}
				return newOutcome(w.Name(), []stats.Run{m.Stats()}, nil, 0)
			}, nil
		}})
	}
	return runs, nil
}

// reseed returns a copy of a Table 1 application drawing its input from seed.
func reseed(w workload.Workload, seed int64) (workload.Workload, error) {
	switch v := w.(type) {
	case *workload.Compare:
		c := *v
		c.Seed = seed
		return &c, nil
	case *workload.CacheSim:
		c := *v
		c.Seed = seed
		return &c, nil
	case *workload.Sort:
		c := *v
		c.Seed = seed
		return &c, nil
	case *workload.Gold:
		c := *v
		c.Seed = seed
		return &c, nil
	}
	return nil, fmt.Errorf("table1: cannot reseed workload %s (%T)", w.Name(), w)
}

// Fleet grid at small scale, as ext/fleet-sweep runs it: 1 MB per machine,
// 768 working-set pages per member (3x physical memory, so evictions must
// leave the machine), 16 donated frames once there are siblings.
const (
	fleetMemory   = 1 << 20
	fleetPages    = 768
	fleetDonation = 16
)

func fleetRuns(seed int64) []run {
	links := []struct {
		name string
		p    netdev.Params
	}{{"eth10", netdev.Ethernet10()}, {"wireless2", netdev.Wireless2()}}
	var runs []run
	for _, n := range []int{1, 2, 4} {
		for _, l := range links {
			for _, codec := range []string{"lzrw1", "fpc"} {
				cfg := cluster.Config{
					Machines:    n,
					MemoryBytes: fleetMemory,
					Link:        l.p,
					Codec:       codec,
					Seed:        seed,
					Obs:         &obs.Options{},
				}
				if n > 1 {
					cfg.DonationFrames = fleetDonation
				}
				name := fmt.Sprintf("%d/%s/%s", n, l.name, codec)
				runs = append(runs, run{name: name, newSpan: "cluster.New", build: func() (exec, error) {
					c, err := cluster.New(cfg)
					if err != nil {
						return nil, err
					}
					return func(t *tracer) (outcome, error) { return runFleetCell(t, name, c) }, nil
				}})
			}
		}
	}
	return runs
}

// runFleetCell populates every member's working set, cycles the kernel
// through a snapshot at the phase boundary, and runs the shuffled verify
// sweep, the same three phases as ext/fleet-sweep.
func runFleetCell(t *tracer, name string, c *cluster.Cluster) (outcome, error) {
	n := c.Size()
	spaces := make([]*machine.Space, n)
	rngs := make([]*rand.Rand, n)
	errs := make([]error, n)
	phase := func(program func(i int, m *machine.Machine)) error {
		for i := 0; i < n; i++ {
			i := i
			c.Go(i, func(m *machine.Machine) { program(i, m) })
		}
		c.Run()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("machine %d: %w", i, err)
			}
		}
		return nil
	}
	_, err := t.span("populate", func() error {
		return phase(func(i int, m *machine.Machine) {
			spaces[i], rngs[i] = appPopulate(m, c.SeedFor(i))
			errs[i] = m.Err()
		})
	})
	if err != nil {
		return outcome{}, err
	}
	if _, err := t.span("SnapshotCycle", c.SnapshotCycle); err != nil {
		return outcome{}, err
	}
	_, err = t.span("verify", func() error {
		return phase(func(i int, m *machine.Machine) {
			errs[i] = appVerify(spaces[i], int64(m.Config().PageSize), rngs[i])
			if errs[i] == nil {
				errs[i] = m.Err()
			}
		})
	})
	if err != nil {
		return outcome{}, err
	}
	_, err = t.span("checks", func() error {
		if err := c.Err(); err != nil {
			return err
		}
		return c.CheckInvariants()
	})
	if err != nil {
		return outcome{}, err
	}
	sts := make([]stats.Run, n)
	for i := range sts {
		sts[i] = c.Machine(i).Stats()
	}
	srv := c.Server().Stats()
	return newOutcome(name, sts, &srv, int64(c.Kernel.Now()))
}

// appPopulate is the fleet cell's application: it writes a tagged working
// set, each page half random 64-byte blocks with a deterministic tag in
// word 0. The app prefix marks it as workload compute in the profile.
func appPopulate(m *machine.Machine, seed int64) (*machine.Space, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	ps := int64(m.Config().PageSize)
	s := m.NewSegment("fleet", fleetPages*ps)
	buf := make([]byte, ps)
	for p := int32(0); p < fleetPages; p++ {
		clear(buf)
		for blk := 0; blk+64 <= len(buf); blk += 64 {
			if rng.Intn(2) == 0 {
				rng.Read(buf[blk : blk+64])
			}
		}
		s.Write(int64(p)*ps, buf)
		s.WriteWord(int64(p)*ps, fleetTag(p))
	}
	return s, rng
}

// appVerify sweeps the working set twice in a seed-shuffled order, checking
// every tag. A zero word is the dead-machine sentinel ReadWord returns
// after a fatal error, which the caller reports through m.Err.
func appVerify(s *machine.Space, ps int64, rng *rand.Rand) error {
	for pass := 0; pass < 2; pass++ {
		for _, p := range rng.Perm(fleetPages) {
			got := s.ReadWord(int64(p) * ps)
			if got != fleetTag(int32(p)) && got != 0 {
				return fmt.Errorf("fleet page %d: tag %#x, want %#x", p, got, fleetTag(int32(p)))
			}
		}
	}
	return nil
}

func fleetTag(p int32) uint64 { return 0xf1ee7<<40 ^ uint64(p)*0x9e3779b9 }

// newOutcome hashes a run's deterministic results: every machine's stats
// (counters, virtual Time and, with obs attached, the metrics snapshot),
// and for a fleet the server's stats and the kernel's final instant.
func newOutcome(name string, sts []stats.Run, srv *cluster.ServerStats, fleetNow int64) (outcome, error) {
	data, err := json.Marshal(struct {
		Run      string
		Stats    []stats.Run
		Server   *cluster.ServerStats `json:",omitempty"`
		FleetNow int64                `json:",omitempty"`
	}{name, sts, srv, fleetNow})
	if err != nil {
		return outcome{}, fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	out := outcome{digest: hex.EncodeToString(sum[:12]), stats: sts}
	if srv != nil {
		out.server = *srv
	}
	return out, nil
}

// counts sums the layers' deterministic counters over one pass.
type counts struct {
	vm     stats.VM
	comp   stats.Compression
	cc     stats.CC
	swap   stats.Swap
	disk   stats.Disk
	server cluster.ServerStats
	// Virtual time summed from the obs histograms (fleet machines only).
	diskWait, netWait time.Duration
	faultService      []obs.Bucket // vm.fault_service, merged by bound
}

func (c *counts) add(o outcome) {
	for _, st := range o.stats {
		c.vm.Refs += st.VM.Refs
		c.vm.Faults += st.VM.Faults
		c.vm.CacheHits += st.VM.CacheHits
		c.vm.SwapIns += st.VM.SwapIns
		c.vm.RemoteIns += st.VM.RemoteIns
		c.vm.Evictions += st.VM.Evictions
		c.comp.Compressions += st.Comp.Compressions
		c.comp.Decompressions += st.Comp.Decompressions
		c.comp.Incompressible += st.Comp.Incompressible
		c.comp.CompressibleIn += st.Comp.CompressibleIn
		c.comp.CompressibleOut += st.Comp.CompressibleOut
		c.cc.Inserts += st.CC.Inserts
		c.cc.Hits += st.CC.Hits
		c.cc.Misses += st.CC.Misses
		c.cc.CleanWrites += st.CC.CleanWrites
		c.cc.MidReclaims += st.CC.MidReclaims
		c.swap.GCs += st.Swap.GCs
		c.swap.GCBytesCopied += st.Swap.GCBytesCopied
		c.swap.PagesOut += st.Swap.PagesOut
		c.swap.PagesIn += st.Swap.PagesIn
		c.disk.Reads += st.Disk.Reads
		c.disk.Writes += st.Disk.Writes
		c.disk.Seeks += st.Disk.Seeks
		c.disk.BusyTime += st.Disk.BusyTime
		c.disk.Retries += st.Disk.Retries
		if st.Metrics == nil {
			continue
		}
		for _, h := range st.Metrics.Histograms {
			switch h.Name {
			case "disk.queue_wait":
				c.diskWait += h.Sum
			case "net.queue_wait":
				c.netWait += h.Sum
			case "vm.fault_service":
				c.faultService = mergeBuckets(c.faultService, h.Buckets)
			}
		}
	}
	c.server.Ops += o.server.Ops
	c.server.Forwards += o.server.Forwards
	c.server.TierHits += o.server.TierHits
	c.server.TierMiss += o.server.TierMiss
	c.server.Demotions += o.server.Demotions
}

// mergeBuckets adds src's counts into dst bound by bound, keeping dst
// sorted with the overflow bucket (Le < 0) last.
func mergeBuckets(dst, src []obs.Bucket) []obs.Bucket {
	for _, b := range src {
		i := 0
		for i < len(dst) && dst[i].Le != b.Le && !bucketLess(b.Le, dst[i].Le) {
			i++
		}
		if i < len(dst) && dst[i].Le == b.Le {
			dst[i].Count += b.Count
			continue
		}
		dst = append(dst, obs.Bucket{})
		copy(dst[i+1:], dst[i:])
		dst[i] = b
	}
	return dst
}

func bucketLess(a, b time.Duration) bool {
	if a < 0 || b < 0 {
		return b < 0 && a >= 0
	}
	return a < b
}

// quantile is the upper bound of the bucket holding the q-th observation,
// or -1 when it falls in the overflow bucket or there are none.
func quantile(buckets []obs.Bucket, q float64) time.Duration {
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return -1
	}
	need := max(uint64(q*float64(total)), 1)
	var cum uint64
	for _, b := range buckets {
		cum += b.Count
		if cum >= need {
			return b.Le
		}
	}
	return -1
}

// checker counts attempted and failed runs. A run fails when it returns an
// error, or when its digest differs from the recorded one or from the same
// run's digest in an earlier pass of this invocation.
type checker struct {
	want      map[string]string // recorded digests for this workload and seed; nil if none
	first     map[string]string
	attempted int
	failed    int
	msgs      []string
}

func (c *checker) check(run, digest string, err error) {
	c.attempted++
	if c.first == nil {
		c.first = make(map[string]string)
	}
	var msg string
	switch {
	case err != nil:
		msg = err.Error()
	case c.first[run] != "" && c.first[run] != digest:
		msg = fmt.Sprintf("digest %s differs from an earlier pass's %s", digest, c.first[run])
	case c.want != nil && c.want[run] != digest:
		msg = fmt.Sprintf("digest %s differs from the recorded %q", digest, c.want[run])
	}
	if err == nil && c.first[run] == "" {
		c.first[run] = digest
	}
	if msg != "" {
		c.failed++
		c.msgs = append(c.msgs, run+": "+msg)
	}
}

func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
