package machine

import (
	"testing"
)

// The compression cache's value proposition is that a compressed-memory hit
// costs microseconds of simulated decompression, not milliseconds of disk.
// On the host side that only holds if the steady-state PageOut/PageIn cycle
// stays off the garbage collector: the machine compresses into a per-machine
// scratch buffer, core.Cache copies into recycled slabs and recycles its
// entry and frame bookkeeping, and the codecs pool their own scratch. These
// tests pin that property with testing.AllocsPerRun so a regression shows up
// as a test failure instead of a profile.

// steadyMachine builds a CC machine whose working set does not fit in RAM
// but compresses well enough to live entirely in the compression cache, then
// cycles through it until compression-cache traffic is the steady state.
func steadyMachine(t *testing.T, writes bool) (*Machine, *Space) {
	t.Helper()
	cfg := Default(mb).WithCC()
	m := newMachine(t, cfg)
	s := m.NewSegment("heap", 400*4096) // 400 pages vs 256 frames
	fillCompressible(s)
	for pass := 0; pass < 3; pass++ {
		for p := int32(0); p < s.Pages(); p++ {
			s.Touch(p, writes)
		}
	}
	return m, s
}

func TestSteadyStateReadCycleZeroAllocs(t *testing.T) {
	m, s := steadyMachine(t, false)
	p := int32(0)
	n := testing.AllocsPerRun(2000, func() {
		s.Touch(p, false)
		p = (p + 1) % s.Pages()
	})
	if n != 0 {
		t.Errorf("steady-state read cycle allocates %v times per touch", n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyStateDirtyRewriteZeroAllocs(t *testing.T) {
	m, s := steadyMachine(t, true)
	p := int32(0)
	n := testing.AllocsPerRun(2000, func() {
		s.Touch(p, true)
		p = (p + 1) % s.Pages()
	})
	if n != 0 {
		t.Errorf("steady-state dirty rewrite cycle allocates %v times per touch", n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateSwapReadCycleZeroAllocs pins the read-only cycle through
// the backing store: a half-random working set too large for memory even
// compressed, swept in order, so every touch swaps a page in from the
// clustered store (capturing its compressed image) and re-evicts a clean
// page by copying its image instead of compressing.
func TestSteadyStateSwapReadCycleZeroAllocs(t *testing.T) {
	m := newMachine(t, Default(mb).WithCC())
	s := m.NewSegment("heap", 1024*4096)
	fillHalfRandom(s, 1)
	for pass := 0; pass < 3; pass++ {
		for p := int32(0); p < s.Pages(); p++ {
			s.Touch(p, false)
		}
	}
	swapIns, hits := m.VM.Stats().SwapIns, m.imageHits
	p := int32(0)
	n := testing.AllocsPerRun(2000, func() {
		s.Touch(p, false)
		p = (p + 1) % s.Pages()
	})
	if n != 0 {
		t.Errorf("steady-state swap read cycle allocates %v times per touch", n)
	}
	if m.VM.Stats().SwapIns == swapIns || m.imageHits == hits {
		t.Fatalf("cycle missed the swap-in or image path: %d swap-ins, %d image hits",
			m.VM.Stats().SwapIns-swapIns, m.imageHits-hits)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
