package compress

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The page-compression codecs sit on the fault path: every compressed page
// the cache serves goes through Decompress, and a decode that panics or
// silently returns wrong bytes corrupts simulated memory. Two properties
// are fuzzed for both LZ codecs:
//
//  1. Round-trip identity: Decompress(Compress(p)) == p for any page-sized
//     input, and the compressed block respects MaxCompressedSize.
//  2. Corrupt-input totality: Decompress never panics on arbitrary bytes,
//     and when it fails, the error wraps ErrCorrupt so callers can
//     distinguish corruption from programming errors. (Arbitrary bytes may
//     also decode "successfully" to the wrong length — decompressInto's
//     length check is what rejects those.)

const fuzzPageSize = 4096

func fuzzSeeds(f *testing.F) {
	for _, p := range fuzzSeedPages() {
		f.Add(p)
	}
}

func fuzzSeedPages() [][]byte {
	// An incompressible-looking ramp.
	ramp := make([]byte, fuzzPageSize)
	for i := range ramp {
		ramp[i] = byte(i*7 + i>>8)
	}
	return [][]byte{
		{},
		{0},
		[]byte("a"),
		[]byte(strings.Repeat("the compression cache extends physical memory ", 90)),
		bytes.Repeat([]byte{0}, fuzzPageSize),
		bytes.Repeat([]byte{0xAA, 0x55}, 2048),
		ramp,
	}
}

func fuzzRoundTrip(f *testing.F, c Codec) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > fuzzPageSize {
			p = p[:fuzzPageSize]
		}
		comp := c.Compress(nil, p)
		if max := c.MaxCompressedSize(len(p)); len(comp) > max {
			t.Fatalf("compressed %d bytes into %d, above MaxCompressedSize %d", len(p), len(comp), max)
		}
		// Decompress into a tight page-sized buffer, the way the machine's
		// fault path does: the result must still be exact.
		dst := make([]byte, 0, fuzzPageSize)
		out, err := c.Decompress(dst, comp)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		// The bound decompressInto depends on: a block compressed from a
		// page never decodes past the page size.
		if len(out) > fuzzPageSize {
			t.Fatalf("page-sized block decoded to %d bytes", len(out))
		}
		if !bytes.Equal(out, p) {
			t.Fatalf("round trip changed %d bytes into %d bytes", len(p), len(out))
		}
	})
}

func fuzzCorrupt(f *testing.F, c Codec) {
	fuzzSeeds(f)
	// Valid blocks with a flipped byte are the interesting corruptions.
	good := c.Compress(nil, []byte(strings.Repeat("seed page content ", 64)))
	for i := 0; i < len(good) && i < 8; i++ {
		mut := bytes.Clone(good)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out, err := c.Decompress(make([]byte, 0, fuzzPageSize), src)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// Successful decodes of arbitrary bytes are fine (decompressInto
		// rejects wrong lengths); they just must stay bounded: one copy item
		// expands to at most ~2*lzssLenCap bytes, so output is linear in the
		// input with a constant far below 1024.
		if maxExpand := 1024 * (len(src) + 1); len(out) > maxExpand {
			t.Fatalf("decoded %d input bytes to %d output bytes", len(src), len(out))
		}
	})
}

func FuzzLZRW1RoundTrip(f *testing.F) { fuzzRoundTrip(f, LZRW1{}) }
func FuzzLZSSRoundTrip(f *testing.F)  { fuzzRoundTrip(f, LZSS{}) }
func FuzzBDIRoundTrip(f *testing.F)   { fuzzRoundTrip(f, BDI{}) }
func FuzzFPCRoundTrip(f *testing.F)   { fuzzRoundTrip(f, FPC{}) }
func FuzzLZRW1Corrupt(f *testing.F)   { fuzzCorrupt(f, LZRW1{}) }
func FuzzLZSSCorrupt(f *testing.F)    { fuzzCorrupt(f, LZSS{}) }
func FuzzBDICorrupt(f *testing.F)     { fuzzCorrupt(f, BDI{}) }
func FuzzFPCCorrupt(f *testing.F)     { fuzzCorrupt(f, FPC{}) }

// FuzzCompressDirtyScratch checks the recycled-dst contracts documented on
// Codec: compressing into a zero-length slice whose backing array is full of
// garbage must produce exactly the bytes of a fresh compression, and
// decoding the result into such a slice must match a fresh decode. The
// machine reuses one scratch buffer for every page it compresses, so a codec
// that reads stale dst bytes beyond len(dst) would silently corrupt pages in
// a data-dependent, hard-to-reproduce way.
func FuzzCompressDirtyScratch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > fuzzPageSize {
			p = p[:fuzzPageSize]
		}
		for _, name := range Names() {
			c, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			clean := c.Compress(nil, p)
			scratch := make([]byte, c.MaxCompressedSize(fuzzPageSize))
			for i := range scratch {
				scratch[i] = 0xFF
			}
			dirty := c.Compress(scratch[:0], p)
			if !bytes.Equal(clean, dirty) {
				t.Fatalf("%s: dirty-scratch compression differs: clean %d bytes, dirty %d bytes",
					c.Name(), len(clean), len(dirty))
			}
			// Decompress may use dst's spare capacity as scratch but never
			// read a byte it has not written: decoding into garbage must
			// match a fresh decode.
			fresh, err := c.Decompress(nil, clean)
			if err != nil {
				t.Fatalf("%s: decode: %v", c.Name(), err)
			}
			plain := bytes.Repeat([]byte{0xFF}, 2*fuzzPageSize)
			got, err := c.Decompress(plain[:0], clean)
			if err != nil || !bytes.Equal(got, fresh) {
				t.Fatalf("%s: dirty-scratch decode differs: fresh %d bytes, dirty %d bytes (err %v)",
					c.Name(), len(fresh), len(got), err)
			}
		}
	})
}

// FuzzLZRW1MatchesReference pins the LZRW1 kernels to the byte-at-a-time
// reference in lzrw1_ref_test.go. Compress must emit the reference's bytes
// for any input up to two pages, appended after a non-empty dst prefix.
// Decompress of arbitrary bytes, into a dst with a prefix and spare
// capacity chosen by the fuzzer (which decides between the group fast path
// and the per-item path), must fail with the reference's error or return
// the reference's bytes. The compressed output is decoded the same way, so
// well-formed blocks reach the fast path too.
func FuzzLZRW1MatchesReference(f *testing.F) {
	for i, p := range fuzzSeedPages() {
		f.Add(p, uint8(i), uint16(fuzzPageSize+8*i))
		f.Add(LZRW1{}.Compress(nil, p), uint8(i), uint16(fuzzPageSize))
	}
	f.Fuzz(func(t *testing.T, p []byte, prefix uint8, spare uint16) {
		if len(p) > 2*fuzzPageSize {
			p = p[:2*fuzzPageSize]
		}
		pre := bytes.Repeat([]byte{prefix}, 1+int(prefix)%32)
		want := lzrw1RefCompress(bytes.Clone(pre), p)
		got := LZRW1{}.Compress(bytes.Clone(pre), p)
		if !bytes.Equal(got, want) {
			t.Fatalf("Compress of %d bytes: %d bytes differ from the reference's %d", len(p), len(got), len(want))
		}
		newDst := func() []byte {
			d := make([]byte, len(pre), len(pre)+int(spare)%(3*fuzzPageSize))
			copy(d, pre)
			return d
		}
		for _, block := range [][]byte{p, got[len(pre):]} {
			wantOut, wantErr := lzrw1RefDecompress(newDst(), block)
			gotOut, gotErr := LZRW1{}.Decompress(newDst(), block)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("Decompress error %v, reference %v", gotErr, wantErr)
			}
			if !bytes.Equal(gotOut, wantOut) {
				t.Fatalf("Decompress returned %d bytes differing from the reference's %d", len(gotOut), len(wantOut))
			}
		}
	})
}
