package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// LZRW1 implements Ross Williams's LZRW1 algorithm ("An Extremely Fast
// Ziv-Lempel Data Compression Algorithm", DCC 1991), the codec the paper's
// compression cache uses. It is a single-pass LZ77 variant tuned for speed:
//
//   - A 4096-entry hash table maps the hash of the next three input bytes to
//     the most recent position where that hash was seen. There is no
//     collision chain and no verification beyond a direct byte comparison,
//     so the table is a heuristic, not an index.
//   - Output is a sequence of 16-item groups. Each group is preceded by a
//     16-bit little-endian control word holding one bit per item, LSB first:
//     0 = literal byte, 1 = copy item.
//   - A copy item is two bytes: the first byte's high nibble holds bits 8–11
//     of the match offset and its low nibble holds length-3; the second byte
//     holds bits 0–7 of the offset. Offsets are 1–4095 back from the current
//     output position; lengths are 3–18 bytes.
//   - A block begins with a one-byte flag: flagCompress for compressed data
//     or flagCopy for stored data. The stored fallback is used whenever
//     compression would expand the block, so worst-case expansion is exactly
//     one byte. (Williams's C original used a four-byte flag word; one byte
//     carries the same information and matters at page granularity.)
//
// Decompression needs no hash table and is the cheaper direction, the
// asymmetry Figure 1 of the paper assumes. The host kernels below work a
// word at a time; lzrw1_ref_test.go keeps the byte-at-a-time reference
// they must match byte for byte, errors included.
type LZRW1 struct{}

const (
	flagCompress = 0x00
	flagCopy     = 0x01

	lzMinMatch = 3
	lzMaxMatch = 18   // 4-bit length field encodes len-3 in 0..15
	lzMaxOff   = 4095 // 12-bit offset
	lzHashSize = 4096
)

// Name reports "lzrw1".
func (LZRW1) Name() string { return "lzrw1" }

// MaxCompressedSize reports n+1: the stored fallback adds only the flag byte.
func (LZRW1) MaxCompressedSize(n int) int { return n + 1 }

// lzHash mixes three bytes into a table index. This is Williams's original
// multiplicative hash.
func lzHash(b0, b1, b2 byte) uint32 {
	return (40543 * ((((uint32(b0) << 4) ^ uint32(b1)) << 4) ^ uint32(b2)) >> 4) & (lzHashSize - 1)
}

// Compress appends the LZRW1-compressed form of src to dst.
//
// Output is built one group at a time: reserve the control word, emit up to
// 16 items, then write the control word. dst is first grown to hold the
// whole budget, len(src)+1 bytes, and the budget check before every item
// and every control word keeps each write inside it.
func (LZRW1) Compress(dst, src []byte) []byte {
	base := len(dst)
	if len(src) == 0 {
		return append(dst, flagCompress)
	}
	// Budget: if compressed output reaches len(src)+1 we are not winning;
	// fall back to a stored block of exactly len(src)+1 bytes.
	limit := base + len(src) + 1
	dst = slices.Grow(dst, len(src)+1)[:limit]
	dst[base] = flagCompress

	// hash holds 1 + the latest item position with each hash; 0 means
	// empty, so the zero value is a cleared table.
	var hash [lzHashSize]int32
	n := len(src)
	op := base + 1
	pos := 0
	for pos < n {
		if op+2 > limit {
			return storedBlock(dst[:base], src)
		}
		ctrlPos := op
		op += 2
		var control uint16
		for bit := 0; bit < 16 && pos < n; bit++ {
			if op+2 > limit {
				return storedBlock(dst[:base], src)
			}
			if pos+lzMinMatch <= n {
				// The next three bytes, as the low 24 bits of cur.
				var cur uint32
				if pos+4 <= n {
					cur = binary.LittleEndian.Uint32(src[pos:])
				} else {
					cur = uint32(src[pos]) | uint32(src[pos+1])<<8 | uint32(src[pos+2])<<16
				}
				h := lzHash(byte(cur), byte(cur>>8), byte(cur>>16))
				cand := int(hash[h]) - 1
				hash[h] = int32(pos + 1)
				off := pos - cand
				// cand < pos <= n-3, so a 4-byte load at cand is in range.
				if cand >= 0 && off <= lzMaxOff &&
					(binary.LittleEndian.Uint32(src[cand:])^cur)&0xFFFFFF == 0 {
					// Extend the match. Both positions index src, so an
					// overlapping match (off < length) needs no special
					// case. With lzMaxMatch+1 bytes left, compare eight
					// bytes at a time; the tail keeps the byte loop.
					length := lzMinMatch
					if n-pos > lzMaxMatch {
						if x := binary.LittleEndian.Uint64(src[cand+3:]) ^ binary.LittleEndian.Uint64(src[pos+3:]); x != 0 {
							length += bits.TrailingZeros64(x) / 8
						} else {
							x = binary.LittleEndian.Uint64(src[cand+11:]) ^ binary.LittleEndian.Uint64(src[pos+11:])
							length = min(length+8+bits.TrailingZeros64(x)/8, lzMaxMatch)
						}
					} else {
						for length < n-pos && src[cand+length] == src[pos+length] {
							length++
						}
					}
					dst[op] = byte((off>>4)&0xF0) | byte(length-lzMinMatch)
					dst[op+1] = byte(off)
					op += 2
					pos += length
					control |= 1 << bit
					continue
				}
			}
			dst[op] = src[pos]
			op++
			pos++
		}
		dst[ctrlPos] = byte(control)
		dst[ctrlPos+1] = byte(control >> 8)
	}
	return dst[:op]
}

func storedBlock(dst, src []byte) []byte {
	dst = append(dst, flagCopy)
	return append(dst, src...)
}

// Decompress appends the decompressed form of an LZRW1 block to dst.
//
// A group whose items provably fit, with lzGroupIn body bytes left and
// lzGroupOut bytes of spare capacity in dst, is decoded by lzDecodeGroup
// without per-item checks. Any other group, such as the block's tail or one
// decoded into a short dst, takes the per-item path below.
func (LZRW1) Decompress(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrCorrupt)
	}
	flag, body := src[0], src[1:]
	switch flag {
	case flagCopy:
		return append(dst, body...), nil
	case flagCompress:
	default:
		return nil, fmt.Errorf("%w: bad flag byte %#x", ErrCorrupt, flag)
	}
	base := len(dst)
	pos := 0
	for pos < len(body) {
		if len(body)-pos >= lzGroupIn && cap(dst)-len(dst) >= lzGroupOut {
			var err error
			if dst, pos, err = lzDecodeGroup(dst, body, pos, base); err != nil {
				return nil, err
			}
			continue
		}
		if pos+2 > len(body) {
			return nil, fmt.Errorf("%w: truncated control word", ErrCorrupt)
		}
		control := uint16(body[pos]) | uint16(body[pos+1])<<8
		pos += 2
		for bit := 0; bit < 16 && pos < len(body); bit++ {
			if control&1 == 1 {
				if pos+2 > len(body) {
					return nil, fmt.Errorf("%w: truncated copy item", ErrCorrupt)
				}
				b0, b1 := body[pos], body[pos+1]
				pos += 2
				off := int(b0&0xF0)<<4 | int(b1)
				length := int(b0&0x0F) + lzMinMatch
				start := len(dst) - off
				if off == 0 || start < base {
					return nil, lzBadOffset(off)
				}
				// Byte-at-a-time copy: source and destination may overlap
				// when off < length.
				for i := 0; i < length; i++ {
					dst = append(dst, dst[start+i])
				}
			} else {
				dst = append(dst, body[pos])
				pos++
			}
			control >>= 1
		}
	}
	return dst, nil
}

const (
	// lzGroupIn is the body a group needs for the fast path: the control
	// word, 15 two-byte items, and the 8 bytes a final literal move reads.
	lzGroupIn = 2 + 15*2 + 8
	// lzGroupOut is the spare dst capacity it needs: 16 maximal copies,
	// plus the up to 7 bytes an 8-byte move writes past the item's end.
	lzGroupOut = 16*lzMaxMatch + 8
)

// lzDecodeGroup decodes the group at body[pos:] onto dst and returns the
// extended dst and the body position after the group. The caller has
// checked lzGroupIn and lzGroupOut, so no item needs a bounds or growth
// check, and moves may write up to 7 bytes of scratch past the output's
// end, never past cap(dst).
//
// A run of literals is copied eight bytes at a time. A copy with offset
// >= 8 moves eight bytes at a time as well: each move reads bytes at least
// 8 back from where it writes, all of them final. A shorter offset repeats
// a pattern shorter than a move and keeps the byte loop.
func lzDecodeGroup(dst, body []byte, pos, base int) ([]byte, int, error) {
	d := len(dst)
	out := dst[:cap(dst)]
	// Bit 16 marks the end of the group: ctl is 1 once all 16 items are
	// consumed.
	ctl := uint32(body[pos]) | uint32(body[pos+1])<<8 | 1<<16
	pos += 2
	for ctl != 1 {
		if lits := bits.TrailingZeros32(ctl); lits != 0 {
			lits = min(lits, 8)
			binary.LittleEndian.PutUint64(out[d:], binary.LittleEndian.Uint64(body[pos:]))
			d += lits
			pos += lits
			ctl >>= lits
			continue
		}
		b0, b1 := body[pos], body[pos+1]
		pos += 2
		ctl >>= 1
		off := int(b0&0xF0)<<4 | int(b1)
		length := int(b0&0x0F) + lzMinMatch
		s := d - off
		if off == 0 || s < base {
			return nil, 0, lzBadOffset(off)
		}
		if off >= 8 {
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[d+i:], binary.LittleEndian.Uint64(out[s+i:]))
			}
		} else {
			for i := 0; i < length; i++ {
				out[d+i] = out[s+i]
			}
		}
		d += length
	}
	return out[:d], pos, nil
}

func lzBadOffset(off int) error {
	return fmt.Errorf("%w: copy offset %d out of range", ErrCorrupt, off)
}
