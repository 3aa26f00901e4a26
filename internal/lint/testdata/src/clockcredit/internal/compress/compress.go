// Package compress is the clockcredit fixture's codec: its Compress and
// Decompress methods are the chargeable work primitives the analyzer
// tracks across package boundaries. The package is outside the
// analyzer's scope, so the uncharged primitives themselves stay silent:
// the finding belongs to whoever exports a path to them.
package compress

// LZ is a toy codec.
type LZ struct{}

// Compress is chargeable codec work.
func (LZ) Compress(p []byte) []byte {
	out := make([]byte, 0, len(p)/2+1)
	for i := 0; i < len(p); i += 2 {
		out = append(out, p[i])
	}
	return out
}

// Decompress is chargeable codec work.
func (LZ) Decompress(p []byte) []byte {
	out := make([]byte, 0, 2*len(p))
	for _, b := range p {
		out = append(out, b, b)
	}
	return out
}
