// Package machine is the clockcredit golden fixture for the scoped
// exported API. The loader maps this directory to an import path ending
// in internal/machine, so it stands in for compcache/internal/machine and
// proves the two headline regressions are caught without editing the real
// machine package: a wall-clock read injected into the simulation core
// (injected.go), and simulated work whose cost never reaches the virtual
// clock — directly, through a helper (credit.go), or through chains that
// keep the work in another package (this file).
package machine

import (
	"compcache/clockcredit/internal/compress"
	"compcache/clockcredit/internal/disk"
	"compcache/clockcredit/internal/pipeline"
	"compcache/clockcredit/internal/sim"
)

// Machine owns the fixture's clock and mirrors the real struct's codec
// and device fields.
type Machine struct {
	clock  *sim.Clock
	codec  compress.LZ
	direct *disk.Disk
}

// BadDeep reaches codec work two packages away with no credit on any
// path: the chain in the message names the route.
func (m *Machine) BadDeep(p []byte) []byte { // want `BadDeep does codec/device work \(BadDeep → pipeline\.Process → compress\.Compress\) but no call path ever advances the virtual clock`
	return pipeline.Process(p)
}

// GoodDeep reaches the same work through a chain that charges the clock.
func (m *Machine) GoodDeep(p []byte) []byte {
	return pipeline.ProcessCharged(m.clock, p)
}

// BadIface reaches codec work through interface dispatch; method-set
// resolution still finds the uncharged chain.
func (m *Machine) BadIface(c pipeline.Codec, p []byte) []byte { // want `BadIface does codec/device work`
	return pipeline.Apply(c, p)
}

// GoodKernelWait reaches the same cross-package codec work, but the
// kernel-mediated wait is the credit: Kernel.Wait is how an attached
// clock advances.
func (m *Machine) GoodKernelWait(k *sim.Kernel, p []byte) []byte {
	k.Wait(0, sim.Time(len(p)))
	return pipeline.Process(p)
}

// GoodKernelSchedule credits through the kernel timer API on the way to
// the uncharged pipeline.
func (m *Machine) GoodKernelSchedule(k *sim.Kernel, p []byte) []byte {
	k.Schedule(10, 0)
	return pipeline.Process(p)
}

// Idle does no chargeable work at all; silent.
func (m *Machine) Idle() sim.Time { return m.clock.Now() }
