// Package snap is the versioned binary encoding of the discrete-event
// kernel's snapshot (sim.Kernel.SnapshotTo/RestoreFrom): a fixed-width
// little-endian stream with a magic/version header and a CRC-32 trailer. The
// reader carries a sticky error, so a restore chains field reads without
// per-call checks and inspects the error once at the end.
//
// The format is deliberately dumb: no varints, no compression, no field
// tags. A snapshot is a pure function of kernel state, so two runs that
// reach the same state produce byte-identical snapshots, and any structural
// drift between writer and reader surfaces as a checksum, section or length
// failure rather than silently misaligned fields.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Magic opens every snapshot stream.
var Magic = [4]byte{'C', 'C', 'S', 'N'}

// Version is the current snapshot format version. Bump it on any change to
// what the writers emit; NewReader refuses other versions.
const Version = 1

// Writer serializes fixed-width values into a growing buffer.
type Writer struct {
	buf []byte
}

// NewWriter begins a snapshot stream: magic then version.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, Magic[:]...)
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], Version)
	w.buf = append(w.buf, v[:]...)
	return w
}

// Bytes finalizes the stream: a CRC-32 of everything written so far is
// appended and the full buffer returned. The writer must not be used again.
func (w *Writer) Bytes() []byte {
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

func (w *Writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// I32 writes a little-endian int32.
func (w *Writer) I32(v int32) { w.u32(uint32(v)) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Section writes a named section marker (a uint32 length, then the name).
// Markers cost a few bytes and turn a misaligned restore into an immediate,
// located error instead of a garbage-field cascade.
func (w *Writer) Section(name string) {
	w.u32(uint32(len(name)))
	w.buf = append(w.buf, name...)
}

// Reader decodes a stream produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates the magic, version, and trailing checksum, returning
// a reader positioned after the header.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < 10 { // magic + version + crc
		return nil, fmt.Errorf("snap: %d-byte stream is too short", len(data))
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("snap: checksum mismatch (corrupt or truncated snapshot)")
	}
	if [4]byte{data[0], data[1], data[2], data[3]} != Magic {
		return nil, fmt.Errorf("snap: bad magic")
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != Version {
		return nil, fmt.Errorf("snap: version %d, this build reads %d", v, Version)
	}
	return &Reader{buf: body, off: 6}, nil
}

// Err reports the sticky error.
func (r *Reader) Err() error { return r.err }

// Close verifies the stream was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after restore", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("snap: truncated stream (want %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.u32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Count reads an element count written by Writer.Int for a run of elements
// of size bytes each. A count that is negative, or that claims more elements
// than the bytes left in the stream could hold, fails the stream and reads
// as zero, so a corrupt count can never size an allocation.
func (r *Reader) Count(size int) int {
	n := r.Int()
	if left := len(r.buf) - r.off; r.err == nil && (n < 0 || n > left/size) {
		r.err = fmt.Errorf("snap: count %d of %d-byte elements overruns the %d bytes left", n, size, left)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Section consumes a section marker and fails the stream if it does not
// match — the first line of defense against writer/reader drift.
func (r *Reader) Section(name string) {
	got := r.take(int(r.u32()))
	if r.err == nil && string(got) != name {
		r.err = fmt.Errorf("snap: section %q, want %q (writer/reader drift)", got, name)
	}
}
