// Package sim is the clockcredit fixture's miniature virtual clock: the
// Advance/AdvanceTo methods are what the analyzer recognizes as credit.
package sim

import "time"

// Time is a virtual instant.
type Time int64

// Clock is the fixture's virtual clock.
type Clock struct{ now Time }

// Now reports the current virtual instant.
func (c *Clock) Now() Time { return c.now }

// Advance charges d of virtual time.
func (c *Clock) Advance(d time.Duration) { c.now += Time(d) }

// AdvanceTo moves the clock forward to t.
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}

// Kernel is the fixture's discrete-event kernel: on an attached clock every
// Advance resolves to a kernel-mediated Wait, so Wait and Schedule are
// charging calls exactly like the clock's own methods.
type Kernel struct{ now Time }

// Wait parks the calling actor until instant until and reports it.
func (k *Kernel) Wait(id int32, until Time) Time {
	if until > k.now {
		k.now = until
	}
	return k.now
}

// Schedule books a wake-up for actor id at instant at.
func (k *Kernel) Schedule(at Time, id int32) {
	if at > k.now {
		k.now = at
	}
}
