// Package pipeline sits between the scoped packages and the codec, so the
// chains clockcredit must follow are genuinely interprocedural: the work
// and the credit both live two calls away from the exported entry points.
// pipeline itself is outside the analyzer's scope, so its own uncharged
// Process stays silent here — the finding belongs to whoever exports it.
package pipeline

import (
	"time"

	"compcache/clockcredit/internal/compress"
	"compcache/clockcredit/internal/sim"
)

// Codec is the dispatch seam the interface-resolution case calls through.
type Codec interface {
	Compress(p []byte) []byte
}

// Apply runs a codec through the interface; type-informed method-set
// resolution connects it to compress.LZ.Compress.
func Apply(c Codec, p []byte) []byte { return c.Compress(p) }

// Process does codec work with no clock credit anywhere on the chain.
func Process(p []byte) []byte {
	var z compress.LZ
	return z.Compress(p)
}

// ProcessCharged does the same work and charges the clock for it.
func ProcessCharged(clock *sim.Clock, p []byte) []byte {
	var z compress.LZ
	out := z.Compress(p)
	clock.Advance(time.Duration(len(p)))
	return out
}
