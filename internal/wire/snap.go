// Snapshot serialization. Besides the protocol's message codecs, the wire
// package carries the binary format for full simulation state capture: the
// session layer (internal/sim, popstab.Session, internal/serve) snapshots a
// running simulation, ships or stores the bytes, and restores them into a
// fresh process with the guarantee that the restored run continues
// bit-identically (DESIGN.md §8).
//
// The format is a flat sequence of tagged, length-prefixed sections inside a
// framed document:
//
//	"PSNP" | version u32 | sections... | crc32c u32
//
// Each section is tag u32 | length u64 | payload. Every component of the
// simulator that carries mutable per-run state (population, positions,
// matcher streams, program side-arrays, adversary counters) encodes its own
// payload with the primitive Enc/Dec methods; the engine owns the section
// layout. All integers are little-endian; the encoding is
// platform-independent and self-checking (length mismatches and corruption
// are caught by the section framing and the trailing checksum).
//
// Versioning is strict: a decoder only accepts its own Version. Snapshots
// are short-lived operational artifacts (pause/migrate/resume), not archival
// interchange, so cross-version migration is out of scope by design.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// SnapVersion is the current snapshot format version. Bump on any layout
// change; decoders reject every other version.
const SnapVersion uint32 = 1

// snapMagic frames a snapshot document.
var snapMagic = [4]byte{'P', 'S', 'N', 'P'}

// castagnoli is the CRC-32C table used for the trailing checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Enc builds one snapshot document. The zero value is not usable; create
// with NewEnc. Enc never fails: misuse (an unclosed section) panics, since
// it is a programming error in the encoding component, not bad input.
type Enc struct {
	buf []byte
	// sect is the offset of the open section's length word, or -1.
	sect int
}

// NewEnc starts a snapshot document (magic and version already written).
func NewEnc() *Enc {
	e := &Enc{buf: make([]byte, 0, 4096), sect: -1}
	e.buf = append(e.buf, snapMagic[:]...)
	e.U32(SnapVersion)
	return e
}

// Begin opens a section with the given tag. Sections cannot nest; Begin
// panics if one is already open.
func (e *Enc) Begin(tag uint32) {
	if e.sect >= 0 {
		panic("wire: nested snapshot section")
	}
	e.U32(tag)
	e.sect = len(e.buf)
	e.U64(0) // length placeholder, patched by End
}

// End closes the open section, patching its length word.
func (e *Enc) End() {
	if e.sect < 0 {
		panic("wire: End without Begin")
	}
	binary.LittleEndian.PutUint64(e.buf[e.sect:], uint64(len(e.buf)-e.sect-8))
	e.sect = -1
}

// Finish seals the document with the checksum and returns the bytes. The
// encoder must not be used afterwards.
func (e *Enc) Finish() []byte {
	if e.sect >= 0 {
		panic("wire: Finish with open section")
	}
	sum := crc32.Checksum(e.buf, castagnoli)
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], sum)
	e.buf = append(e.buf, w[:]...)
	return e.buf
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	e.buf = append(e.buf, w[:]...)
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	e.buf = append(e.buf, w[:]...)
}

// I64 appends a little-endian int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bits, so round-trips are exact.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Block appends n bytes and returns the appended region for the caller to
// fill directly (e.g. with binary.LittleEndian writes). The bulk seam of the
// snapshot encoders: one Block per record array instead of a per-field
// append per record, so large-N state capture is one grow plus streaming
// stores.
// The caller must overwrite every byte of the returned slice (the region is
// not cleared) before the next Enc call; the slice is invalidated by any
// subsequent append.
func (e *Enc) Block(n int) []byte {
	off := len(e.buf)
	if cap(e.buf)-off < n {
		grown := make([]byte, off, (off+n)+(off+n)/2)
		copy(grown, e.buf)
		e.buf = grown
	}
	e.buf = e.buf[: off+n : cap(e.buf)]
	return e.buf[off : off+n]
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Dec reads one snapshot document. Errors are sticky: after the first
// failure every subsequent read returns the zero value and Err reports the
// cause, so decoding components can read linearly and check once.
type Dec struct {
	buf []byte
	off int
	err error
	// sectEnd is the open section's end offset, or -1.
	sectEnd int
}

// NewDec validates the framing (magic, version, checksum) and returns a
// decoder positioned at the first section.
func NewDec(data []byte) (*Dec, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("wire: snapshot truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("wire: snapshot checksum mismatch (got %08x, want %08x)", got, want)
	}
	d := &Dec{buf: body, sectEnd: -1}
	var magic [4]byte
	copy(magic[:], d.take(4))
	if magic != snapMagic {
		return nil, fmt.Errorf("wire: bad snapshot magic %q", magic[:])
	}
	if v := d.U32(); v != SnapVersion {
		return nil, fmt.Errorf("wire: snapshot version %d, this build reads %d", v, SnapVersion)
	}
	return d, d.err
}

// Err reports the first decoding failure, if any.
func (d *Dec) Err() error { return d.err }

// Remaining reports the unread byte count. Decoders of repeated fixed-size
// records check count*size against it before allocating, so a corrupt count
// fails cleanly instead of attempting a huge allocation.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes n raw bytes (nil after an error or on underflow).
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail("wire: snapshot underflow (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Begin opens the next section and verifies its tag. The caller must
// consume exactly the section's payload before End.
func (d *Dec) Begin(tag uint32) {
	if d.sectEnd >= 0 {
		d.fail("wire: nested snapshot section %d", tag)
		return
	}
	if got := d.U32(); d.err == nil && got != tag {
		d.fail("wire: snapshot section tag %d, want %d", got, tag)
	}
	n := d.U64()
	if d.err != nil {
		return
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("wire: snapshot section %d overruns document (%d bytes)", tag, n)
		return
	}
	d.sectEnd = d.off + int(n)
}

// End closes the open section, verifying the payload was consumed exactly.
func (d *Dec) End() {
	if d.err != nil {
		d.sectEnd = -1
		return
	}
	if d.sectEnd < 0 {
		d.fail("wire: End without Begin")
		return
	}
	if d.off != d.sectEnd {
		d.fail("wire: snapshot section length mismatch (at %d, section ends %d)", d.off, d.sectEnd)
	}
	d.sectEnd = -1
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean byte; values other than 0 and 1 are corruption.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("wire: snapshot bool out of range")
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads a length prefix and validates it against the remaining input,
// so corrupt lengths fail cleanly instead of attempting huge allocations.
func (d *Dec) Len() int {
	n := d.U64()
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.fail("wire: snapshot length %d exceeds remaining %d bytes", n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

// Count reads a record count and validates count·recordSize against the
// remaining input (dividing, not multiplying, so a corrupt count cannot
// overflow), failing the decoder instead of letting the caller attempt a
// huge allocation. The shared guard for every repeated-record payload.
func (d *Dec) Count(recordSize int, what string) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if recordSize < 1 {
		recordSize = 1
	}
	if n > uint64(d.Remaining()/recordSize) {
		d.fail("wire: snapshot %s count %d exceeds payload", what, n)
		return 0
	}
	return int(n)
}

// Raw consumes n raw payload bytes and returns them WITHOUT copying — the
// decode twin of Enc.Block for bulk record arrays. The slice aliases the
// snapshot document; callers must not retain it past decoding. Returns nil
// (with the decoder failed) on underflow.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// Bytes reads a length-prefixed byte string (copied out of the document).
func (d *Dec) Bytes() []byte {
	n := d.Len()
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Len()
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
