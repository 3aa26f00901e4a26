package machine_test

import (
	"testing"

	"compcache/internal/exp"
	"compcache/internal/machine"
	"compcache/internal/workload"
)

// TestTable1ImageHits pins how many clean re-evictions the small-scale
// Table 1 pass on the compression-cache machine serves from a compressed
// image: 182,904 per pass. Images come from two places: a compressed swap
// read (130,886 of those hits) and a reclaimed cache entry of a resident
// page (52,018). Capturing the second kind when core reclaims the entry,
// instead of copying every cache hit's block, must keep every one of them.
func TestTable1ImageHits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole Table 1 pass")
	}
	want := map[string]uint64{
		"compare":      0,
		"isca":         0,
		"sort_partial": 126,
		"gold_create":  5151,
		"gold_cold":    60968,
		"sort_random":  0,
		"gold_warm":    116659,
	}
	var total uint64
	for _, n := range want {
		total += n
	}
	if total != 182904 {
		t.Fatalf("per-application counts sum to %d, want 182904", total)
	}
	opts := exp.DefaultTable1Options(exp.Small)
	cfg := machine.Default(int64(opts.MemoryMB) << 20).WithCC()
	if len(opts.Workloads) != len(want) {
		t.Fatalf("Table 1 has %d applications, want %d", len(opts.Workloads), len(want))
	}
	for _, w := range opts.Workloads {
		w := workload.Clone(w)
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(m); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if hits, wantHits := machine.ImageHits(m), want[w.Name()]; hits != wantHits {
				t.Errorf("%d image hits, want %d", hits, wantHits)
			}
		})
	}
}
