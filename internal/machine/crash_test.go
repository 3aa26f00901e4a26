package machine

import (
	"strings"
	"testing"

	"compcache/internal/fault"
	"compcache/internal/swap"
)

// drivePhase applies a deterministic mixed read/write pattern to the space
// and waits for the machine's queued backing-store writes.
func drivePhase(m *Machine, s *Space, base int) {
	npages := int64(s.Pages())
	for i := 0; i < 4000; i++ {
		page := (int64(base)*7 + int64(i)*31) % npages
		off := page*4096 + int64(i%500)*8
		if i%3 == 0 {
			s.ReadWord(off)
		} else {
			s.WriteWord(off, uint64(base)*1_000_003+uint64(i))
		}
	}
	m.Drain()
}

// TestCrashRebootFromMedia cuts power at an early device write, reboots from
// the torn media image, and verifies the recovered store against the crashed
// machine's in-memory state — the machine-level version of the crash sweep.
func TestCrashRebootFromMedia(t *testing.T) {
	base := Default(40 * 4096)
	cases := map[string]Config{
		"lfs": base.WithLFS(swap.LFSConfig{SegmentBytes: 8 * 4096, Durable: true, Paranoid: true}),
		"cc":  base.WithCC(),
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg.Swap.CommitRecords = true
			cfg.Swap.Paranoid = true
			for _, k := range []uint64{1, 2, 5, 9} {
				crashed := cfg.WithFaults(fault.Config{Seed: 3, CrashAtWrite: k})
				m := newMachine(t, crashed)
				s := m.NewSegment("crash", 96*4096)
				drivePhase(m, s, 6)
				if !m.Introspect().Injector.Crashed() {
					t.Fatalf("crash point %d never fired", k)
				}
				reborn, err := NewFromMedia(cfg, m.FS.Image())
				if err != nil {
					t.Fatalf("crash point %d: reboot: %v", k, err)
				}
				stores, rebornStores := m.Introspect(), reborn.Introspect()
				switch {
				case stores.Clustered != nil:
					err = rebornStores.Clustered.VerifyRecovery(stores.Clustered)
				case stores.LFS != nil:
					err = rebornStores.LFS.VerifyRecovery(stores.LFS)
				default:
					t.Fatal("no recoverable store")
				}
				if err != nil {
					t.Errorf("crash point %d: %v", k, err)
				}
				if rebornStores.Recovery == nil {
					t.Errorf("crash point %d: reboot recorded no recovery report", k)
				}
				if err := reborn.CheckInvariants(); err != nil {
					t.Errorf("crash point %d: %v", k, err)
				}
			}
		})
	}
}

// TestNewFromMediaRequiresImage pins the constructor's contract: a nil image
// is a programming error, and the baseline direct swap has no recoverable
// layout to boot from.
func TestNewFromMediaRequiresImage(t *testing.T) {
	if _, err := NewFromMedia(Default(mb), nil); err == nil {
		t.Error("nil image accepted")
	}
	m := newMachine(t, Default(mb))
	if _, err := NewFromMedia(Default(mb), m.FS.Image()); err == nil ||
		!strings.Contains(err.Error(), "recoverable") {
		t.Errorf("direct-swap boot from media: err = %v, want recoverable-store complaint", err)
	}
}
