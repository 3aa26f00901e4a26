// Package swap is the clockcredit fixture for direct cross-package codec
// calls from a scoped package.
package swap

import (
	"time"

	"compcache/clockcredit/internal/compress"
	"compcache/clockcredit/internal/sim"
)

// Store compresses pages on their way to the backing store.
type Store struct {
	clock *sim.Clock
	codec compress.LZ
}

// BadFlush compresses a page from another package without charging.
func (s *Store) BadFlush(p []byte) []byte { // want `BadFlush does codec/device work \(BadFlush → compress\.Compress\)`
	return s.codec.Compress(p)
}

// GoodFlush charges the clock for the same work.
func (s *Store) GoodFlush(p []byte) []byte {
	out := s.codec.Compress(p)
	s.clock.Advance(time.Duration(len(p)))
	return out
}
