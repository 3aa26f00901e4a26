// Benchmarks regenerating the paper's evaluation. There is one benchmark
// per table and figure (Figure 1(a), Figure 1(b), Figure 3, Table 1 — one
// sub-benchmark per application row), plus ablation benchmarks for the
// design decisions DESIGN.md calls out and micro-benchmarks for the codec
// and fault paths. Benchmarks run at the small scale so `go test -bench=.`
// finishes in minutes; cmd/ccbench runs the paper scale.
package compcache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"compcache/internal/exp"
	"compcache/internal/workload"
)

const benchMB = 1 << 20

// BenchmarkFig1a regenerates Figure 1(a), the analytic bandwidth-speedup
// surface.
func BenchmarkFig1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := Fig1a()
		if len(f.Grid) == 0 {
			b.Fatal("empty grid")
		}
	}
}

// BenchmarkFig1b regenerates Figure 1(b), the analytic reference-time
// surface with its leap at r = 0.5.
func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := Fig1b()
		if len(f.Grid) == 0 {
			b.Fatal("empty grid")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: the thrasher sweep over address-space
// sizes, measured on the baseline and compression-cache machines.
func BenchmarkFig3(b *testing.B) {
	opts := DefaultFig3Options(SmallScale)
	for i := 0; i < b.N; i++ {
		res, err := Fig3(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 row by row; each sub-benchmark runs
// one application on both machines and reports the measured speedup.
func BenchmarkTable1(b *testing.B) {
	opts := DefaultTable1Options(SmallScale)
	for _, w := range opts.Workloads {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			base := Default(int64(opts.MemoryMB) << 20)
			cc := base.WithCC()
			var last Comparison
			for i := 0; i < b.N; i++ {
				cmp, err := RunBoth(base, cc, w)
				if err != nil {
					b.Fatal(err)
				}
				last = cmp
			}
			b.ReportMetric(last.Speedup(), "speedup")
			b.ReportMetric(last.CC.Comp.Ratio(), "ratio")
		})
	}
}

// BenchmarkTable1Parallelism regenerates the whole of Table 1 serially and
// with the parallel runner. Wall-clock per op is the point of comparison:
// the runs are independent machines, so -j 4 should approach a 4x win on
// idle 4-core hardware while producing a byte-identical table (asserted in
// TestTable1ParallelMatchesSerial). Run with -scale=paper semantics via
// cmd/ccbench for the paper-sized version of the same comparison.
func BenchmarkTable1Parallelism(b *testing.B) {
	for _, j := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := DefaultTable1Options(SmallScale)
			opts.Parallelism = j
			for i := 0; i < b.N; i++ {
				res, err := Table1(opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkTable1ParallelismPaper is the acceptance benchmark at the
// paper's scale: the 14 machines of the full Table 1 regenerated with one
// worker and with four. On a ≥4-core host the j=4 run must finish in well
// under 1/1.5 of the serial time (the limit is the slowest single row, not
// worker count). Skipped under -short; run with
//
//	go test -short=false -run='^$' -bench=BenchmarkTable1ParallelismPaper -benchtime=1x
func BenchmarkTable1ParallelismPaper(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale Table 1 takes minutes; skipped under -short")
	}
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := DefaultTable1Options(PaperScale)
			opts.Parallelism = j
			for i := 0; i < b.N; i++ {
				if _, err := Table1(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Parallelism is the same serial-vs-parallel comparison over
// the Figure 3 sweep (4 machines per size, embarrassingly parallel).
func BenchmarkFig3Parallelism(b *testing.B) {
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := DefaultFig3Options(SmallScale)
			opts.Parallelism = j
			for i := 0; i < b.N; i++ {
				if _, err := Fig3(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPartialIO measures whole-block vs exact-size backing
// store transfers (§4.3 / §6).
func BenchmarkAblationPartialIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationPartialIO(1, 768, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpanning measures fragment spanning of file blocks
// (§4.3).
func BenchmarkAblationSpanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationSpanning(1, 768, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBias sweeps the compression-cache retention bias (§4.2).
func BenchmarkAblationBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationBias(1, 768, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThreshold sweeps the 4:3 retention threshold (§5.2).
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationThreshold(1, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCodec compares compression algorithms (§3).
func BenchmarkAblationCodec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationCodec(1, 768, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFixedSize compares the original fixed-size cache with
// adaptive sizing (§4.2).
func BenchmarkAblationFixedSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationFixedSize(1, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecs measures raw codec throughput on a representative page.
func BenchmarkCodecs(b *testing.B) {
	page := []byte(strings.Repeat("the compression cache extends physical memory ", 100))[:4096]
	for _, name := range Codecs() {
		codec, err := LookupCodec(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/compress", func(b *testing.B) {
			b.SetBytes(4096)
			b.ReportAllocs()
			dst := make([]byte, 0, codec.MaxCompressedSize(4096))
			dst = codec.Compress(dst[:0], page) // warm internal pools
			for i := 0; i < b.N; i++ {
				dst = codec.Compress(dst[:0], page)
			}
		})
		b.Run(name+"/decompress", func(b *testing.B) {
			comp := codec.Compress(nil, page)
			b.SetBytes(4096)
			b.ReportAllocs()
			dst := make([]byte, 0, 4096)
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = codec.Decompress(dst[:0], comp)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultPath measures the simulator's host-side cost per simulated
// memory reference under heavy paging (the figure that bounds experiment
// wall-clock time).
func BenchmarkFaultPath(b *testing.B) {
	for _, cc := range []bool{false, true} {
		name := "baseline"
		if cc {
			name = "cc"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Default(benchMB)
			if cc {
				cfg = cfg.WithCC()
			}
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := m.NewSegment("bench", 4*benchMB)
			pages := s.Pages()
			var word [8]byte
			for p := int32(0); p < pages; p++ {
				s.Write(int64(p)*4096, word[:])
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Touch(int32(i)%pages, i%2 == 0)
			}
		})
	}
}

// BenchmarkSteadyStatePaging measures the machine's compress/decompress hot
// path once the compression cache holds the whole working set: every touch
// is a page-out (compress into the per-machine scratch buffer) plus a cache
// hit (decompress into the frame), with no disk traffic. The allocs/op
// column is the interesting one — the steady state must stay at zero (also
// pinned by TestSteadyState*ZeroAllocs in internal/machine).
func BenchmarkSteadyStatePaging(b *testing.B) {
	for _, codecName := range []string{"lzrw1", "lzss", "bdi", "fpc"} {
		b.Run(codecName, func(b *testing.B) {
			cfg := Default(benchMB).WithCC()
			cfg.CC.Codec = codecName
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := m.NewSegment("bench", 400*4096)
			pages := s.Pages()
			var word [8]byte
			for p := int32(0); p < pages; p++ {
				s.Write(int64(p)*4096, word[:])
			}
			for pass := 0; pass < 3; pass++ { // reach the compressed steady state
				for p := int32(0); p < pages; p++ {
					s.Touch(p, false)
				}
			}
			b.SetBytes(4096)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Touch(int32(i)%pages, false)
			}
		})
	}
}

// BenchmarkCleanReevictionPaging measures the read-only cycle through the
// backing store: a working set that does not fit in memory even compressed
// (pages half random, half zero), swept in order, so every touch swaps a
// page in from the clustered store and re-evicts a clean one by reusing the
// compressed image kept from its swap-in instead of running the codec.
// allocs/op must stay at zero (pinned by
// TestSteadyStateSwapReadCycleZeroAllocs in internal/machine).
func BenchmarkCleanReevictionPaging(b *testing.B) {
	for _, codecName := range []string{"lzrw1", "lzss", "bdi", "fpc"} {
		b.Run(codecName, func(b *testing.B) {
			cfg := Default(benchMB).WithCC()
			cfg.CC.Codec = codecName
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := m.NewSegment("bench", 1024*4096)
			pages := s.Pages()
			rng := rand.New(rand.NewSource(1))
			page := make([]byte, 4096)
			for p := int32(0); p < pages; p++ {
				rng.Read(page[:2048])
				s.Write(int64(p)*4096, page)
			}
			for pass := 0; pass < 3; pass++ { // reach the swap-in steady state
				for p := int32(0); p < pages; p++ {
					s.Touch(p, false)
				}
			}
			b.SetBytes(4096)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Touch(int32(i)%pages, false)
			}
			b.StopTimer()
			if err := m.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkThrasherSweep is the inner loop of Figure 3 at one interesting
// size (2x memory), useful for profiling the whole stack.
func BenchmarkThrasherSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Measure(Default(benchMB).WithCC(),
			&workload.Thrasher{Pages: 512, Write: true, Passes: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionBackingStore sweeps backing-store speed (§6).
func BenchmarkExtensionBackingStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.BackingStoreSweep(1, 768, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionCompressionSpeed sweeps compression bandwidth (§6).
func BenchmarkExtensionCompressionSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.CompressionSpeedSweep(1, 768, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionPinning compares §3 advisory pinning with the cache.
func BenchmarkExtensionPinning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AdvisoryPinning(1, 512, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionFileCache measures the §6 compressed file buffer cache.
func BenchmarkExtensionFileCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.CompressedFileCache(1, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures trace replay throughput (references per second of
// host time through the full paging stack).
func BenchmarkReplay(b *testing.B) {
	m, err := New(Default(benchMB))
	if err != nil {
		b.Fatal(err)
	}
	var rec TraceRecorder
	m.VM.SetTraceHook(rec.Note)
	if err := (&Thrasher{Pages: 512, Write: true, Passes: 1, Seed: 1}).Run(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Measure(Default(benchMB).WithCC(), &Replay{Refs: rec.Refs, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionLFS compares direct, log-structured and compressed
// paging (§5.1).
func BenchmarkExtensionLFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.LFSComparison(1, 512, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionMultiprogramming measures the three-way trade with
// concurrent processes (§4.2).
func BenchmarkExtensionMultiprogramming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Multiprogramming(1, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
