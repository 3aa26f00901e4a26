package machine

import "compcache/clockcredit/internal/sim"

// Cases where the work and the credit sit in the machine itself: in the
// exported body or behind an unexported helper.

// BadCompress does codec work without charging the clock.
func (m *Machine) BadCompress(data []byte) []byte { // want `BadCompress does codec/device work \(BadCompress → compress\.Compress\) but no call path ever advances the virtual clock`
	return m.codec.Compress(data)
}

// BadWrite touches the backing store uncharged.
func (m *Machine) BadWrite(data []byte) { // want `BadWrite does codec/device work \(BadWrite → disk\.Write\) but no call path ever advances the virtual clock`
	m.direct.Write(0, data)
}

// BadViaHelper reaches uncharged work through an unexported helper; the
// exported entry point is what gets flagged, at its declaration line.
func (m *Machine) BadViaHelper(data []byte) { // want `BadViaHelper does codec/device work \(BadViaHelper → machine\.unchargedWrite → disk\.Write\)`
	m.unchargedWrite(data)
}

func (m *Machine) unchargedWrite(data []byte) {
	m.direct.Write(0, data)
}

// GoodCompress charges the clock in the same body.
func (m *Machine) GoodCompress(data []byte) []byte {
	m.clock.Advance(1)
	return m.codec.Compress(data)
}

// GoodViaHelper charges through a same-package helper; credit propagates
// transitively.
func (m *Machine) GoodViaHelper(data []byte) {
	m.chargedWrite(data)
}

func (m *Machine) chargedWrite(data []byte) {
	m.clock.Advance(1)
	m.direct.Write(0, data)
}

// GoodRead reaches a device primitive that charges its own service time.
func (m *Machine) GoodRead(data []byte) {
	m.direct.Read(0, data)
}

// GoodNoOps does no chargeable work at all; nothing to flag.
func (m *Machine) GoodNoOps() int { return 0 }

// GoodKernelWaitDirect charges through the kernel API in the same body
// as the codec call: a kernel-mediated wait is how an attached clock
// advances, so it credits exactly like Advance.
func (m *Machine) GoodKernelWaitDirect(k *sim.Kernel, data []byte) []byte {
	k.Wait(0, sim.Time(len(data)))
	return m.codec.Compress(data)
}

// GoodKernelScheduleDirect credits through the kernel's timer API.
func (m *Machine) GoodKernelScheduleDirect(k *sim.Kernel, data []byte) {
	k.Schedule(10, 0)
	m.direct.Write(0, data)
}
