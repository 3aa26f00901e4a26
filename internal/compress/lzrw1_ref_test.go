package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// lzrw1RefCompress and lzrw1RefDecompress are the byte-at-a-time LZRW1
// kernels the package shipped before the word-wide ones in lzrw1.go. They
// are kept as the reference FuzzLZRW1MatchesReference compares against:
// the fast kernels must reproduce every compressed byte and every error of
// this code. Do not optimise them.

func lzrw1RefCompress(dst, src []byte) []byte {
	base := len(dst)
	if len(src) == 0 {
		return append(dst, flagCompress)
	}
	// Budget: if compressed output reaches len(src)+1 we are not winning;
	// fall back to a stored block of exactly len(src)+1 bytes.
	limit := base + len(src) + 1

	var hash [lzHashSize]int32
	for i := range hash {
		hash[i] = -1
	}

	dst = append(dst, flagCompress)
	// Reserve space for the first control word.
	ctrlPos := len(dst)
	dst = append(dst, 0, 0)
	var control uint16
	controlBits := 0

	flushControl := func() {
		dst[ctrlPos] = byte(control)
		dst[ctrlPos+1] = byte(control >> 8)
	}

	pos := 0
	for pos < len(src) {
		if len(dst)+2 > limit {
			return storedBlock(dst[:base], src)
		}
		emitted := false
		if pos+lzMinMatch <= len(src) {
			h := lzHash(src[pos], src[pos+1], src[pos+2])
			cand := hash[h]
			hash[h] = int32(pos)
			if cand >= 0 {
				off := pos - int(cand)
				if off >= 1 && off <= lzMaxOff &&
					src[cand] == src[pos] && src[cand+1] == src[pos+1] && src[cand+2] == src[pos+2] {
					// Extend the match. The source region may overlap the
					// current position (off < length), which reproduces
					// earlier output bytes exactly as LZ77 intends.
					maxLen := lzMaxMatch
					if rem := len(src) - pos; rem < maxLen {
						maxLen = rem
					}
					length := lzMinMatch
					for length < maxLen && src[int(cand)+length] == src[pos+length] {
						length++
					}
					dst = append(dst,
						byte((off>>4)&0xF0)|byte(length-lzMinMatch),
						byte(off))
					pos += length
					control = control>>1 | 0x8000
					controlBits++
					emitted = true
				}
			}
		}
		if !emitted {
			dst = append(dst, src[pos])
			pos++
			control >>= 1
			controlBits++
		}
		if controlBits == 16 {
			flushControl()
			if pos < len(src) {
				if len(dst)+2 > limit {
					return storedBlock(dst[:base], src)
				}
				ctrlPos = len(dst)
				dst = append(dst, 0, 0)
			}
			control = 0
			controlBits = 0
		}
	}
	if controlBits > 0 {
		control >>= 16 - uint(controlBits)
		flushControl()
	} else if ctrlPos == len(dst)-2 {
		// A control word was reserved but no items followed; drop it.
		dst = dst[:len(dst)-2]
	}
	if len(dst) > limit {
		return storedBlock(dst[:base], src)
	}
	return dst
}

func lzrw1RefDecompress(dst, src []byte) ([]byte, error) {
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
					return nil, fmt.Errorf("%w: copy offset %d out of range", ErrCorrupt, off)
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

// TestLZRW1MatchesReferenceRandom runs the reference comparison of
// FuzzLZRW1MatchesReference over seeded inputs built from small alphabets,
// so matches of every length and offset are common, decoding each block
// into dst capacities on both sides of the group fast path's threshold.
func TestLZRW1MatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 2000; iter++ {
		p := make([]byte, rng.Intn(2*4096+1))
		alphabet := 1 + rng.Intn(24)
		for i := range p {
			if rng.Intn(8) == 0 && i >= 8 {
				p[i] = p[i-1-rng.Intn(8)] // short-offset repeats
			} else {
				p[i] = byte('a' + rng.Intn(alphabet))
			}
		}
		pre := []byte{byte(iter)}
		want := lzrw1RefCompress(bytes.Clone(pre), p)
		got := LZRW1{}.Compress(bytes.Clone(pre), p)
		if !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): Compress differs from the reference", iter, len(p))
		}
		block := got[len(pre):]
		if rng.Intn(4) == 0 && len(block) > 1 {
			block[1+rng.Intn(len(block)-1)] ^= byte(1 + rng.Intn(255)) // corrupt it
		}
		for _, spare := range []int{0, lzGroupOut - 1, lzGroupOut, len(p), len(p) + lzGroupOut} {
			wantOut, wantErr := lzrw1RefDecompress(append(make([]byte, 0, 1+spare), pre...), block)
			gotOut, gotErr := LZRW1{}.Decompress(append(make([]byte, 0, 1+spare), pre...), block)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(gotOut, wantOut) {
				t.Fatalf("input %d, spare %d: Decompress = %d bytes, %v; reference %d bytes, %v",
					iter, spare, len(gotOut), gotErr, len(wantOut), wantErr)
			}
		}
	}
}
