// Package disk is the clockcredit fixture's device. Its Read charges its
// own service time, like the real disk, so every caller of Read is
// credited; its Write does not, so Write is itself a finding and so is
// every exported path to it that charges nowhere else — within this
// package as much as from another one.
package disk

import (
	"time"

	"compcache/clockcredit/internal/compress"
	"compcache/clockcredit/internal/sim"
)

// Disk is the fixture device.
type Disk struct {
	clock *sim.Clock
}

// Read is a chargeable device primitive that charges itself.
func (d *Disk) Read(addr int64, p []byte) {
	d.clock.Advance(time.Duration(len(p)))
}

// Write is a device primitive that forgets to charge.
func (d *Disk) Write(addr int64, p []byte) {} // want `Write does codec/device work \(Write\)`

// Scrub reaches the uncharged Write within its own package: the
// same-package chain is the same rule as a cross-package one.
func (d *Disk) Scrub(p []byte) { // want `Scrub does codec/device work \(Scrub → disk\.Write\)`
	d.Write(0, p)
}

// Verify reaches only the self-charging Read; silent.
func (d *Disk) Verify(p []byte) {
	d.Read(0, p)
}

// BadCompact reaches codec work in another package without charging.
func (d *Disk) BadCompact(p []byte) []byte { // want `BadCompact does codec/device work \(BadCompact → compress\.Compress\)`
	var z compress.LZ
	return z.Compress(p)
}
