package machine

// ImageHits exposes the count of PageOuts served from a compressed image to
// the external tests in this directory.
func ImageHits(m *Machine) uint64 { return m.imageHits }
