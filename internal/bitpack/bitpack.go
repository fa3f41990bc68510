// Package bitpack provides densely packed arrays of fixed-width bit fields.
//
// ExaLogLog registers occupy 6+t+d bits each; for the configurations the
// paper recommends this is 16, 24, 28 or 32 bits. The Array type stores n
// such fields back to back in a byte slice so that the total footprint is
// exactly ceil(n*w/8) bytes, matching the paper's space accounting. Get and
// Set read widths of 8, 16, 24 and 32 bits with loads of that width and
// every width from 1 to 57 bits through a generic path that never reads
// past the underlying slice. Load and Store, a read-modify-write of one
// field, read and write the 8-byte word that holds it; a field among the
// last eight bytes is reached through the array's last word, shifted
// further. So the slice carries no padding: a power-of-two count of 28-bit
// registers is a round number of bytes (14 336 at p = 12) that sits
// exactly in an allocator size class, and even a few bytes more would push
// it into the next one (16 384). Only an array under eight bytes has a
// backing of eight, for Load and Store's word.
package bitpack

import (
	"encoding/binary"
	"fmt"
)

// MaxWidth is the largest supported field width in bits. The generic
// accessor reads at most eight consecutive bytes, which caps the width at
// 57 bits (a field may start at bit offset 7 within its first byte).
// All ExaLogLog configurations use at most 6+t+d <= 6+3+61 bits in theory,
// but every practically relevant configuration is far below 57 bits.
const MaxWidth = 57

// Array is a packed array of n fields, each w bits wide. The zero value is
// not usable; create instances with New.
type Array struct {
	bits  []byte
	n     int
	last  int // offset of the array's last 8-byte word; 0 under eight bytes
	width uint
}

// New returns a packed array of n fields of the given width, all zero.
func New(n int, width uint) *Array {
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative length %d", n))
	}
	if width == 0 || width > MaxWidth {
		panic(fmt.Sprintf("bitpack: unsupported width %d", width))
	}
	size := int((uint64(n)*uint64(width) + 7) / 8)
	return &Array{bits: alloc(size), n: n, last: max(size-8, 0), width: width}
}

// alloc returns a zeroed slice of size bytes whose backing holds at least
// one 8-byte word.
func alloc(size int) []byte { return make([]byte, size, max(size, 8)) }

// FromBytes reconstructs an Array from the serialized representation
// produced by Bytes. The data is copied.
func FromBytes(data []byte, n int, width uint) (*Array, error) {
	a := New(n, width)
	want := a.SizeBytes()
	if len(data) != want {
		return nil, fmt.Errorf("bitpack: got %d bytes, want %d for %d fields of width %d", len(data), want, n, width)
	}
	copy(a.bits, data)
	return a, nil
}

// Len returns the number of fields.
func (a *Array) Len() int { return a.n }

// SizeBytes returns the exact serialized size in bytes: ceil(n*w/8).
func (a *Array) SizeBytes() int { return len(a.bits) }

// Bytes returns the packed representation, exactly SizeBytes() long. The
// returned slice aliases the array's storage; callers must copy it before
// mutating the array if they need a stable snapshot. It has no spare
// capacity, so an append to it never writes into the array's backing.
func (a *Array) Bytes() []byte { return a.bits[:len(a.bits):len(a.bits)] }

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	c := *a
	c.bits = alloc(len(a.bits))
	copy(c.bits, a.bits)
	return &c
}

// Reset zeroes all fields.
func (a *Array) Reset() {
	for i := range a.bits {
		a.bits[i] = 0
	}
}

// Get returns field i.
func (a *Array) Get(i int) uint64 {
	if uint(i) >= uint(a.n) {
		panic(indexError{i, a.n})
	}
	switch a.width {
	case 8:
		return uint64(a.bits[i])
	case 16:
		return uint64(binary.LittleEndian.Uint16(a.bits[2*i:]))
	case 24:
		off := 3 * i
		return uint64(a.bits[off]) | uint64(a.bits[off+1])<<8 | uint64(a.bits[off+2])<<16
	case 32:
		return uint64(binary.LittleEndian.Uint32(a.bits[4*i:]))
	}
	bitOff := uint64(i) * uint64(a.width)
	byteOff := bitOff >> 3
	shift := uint(bitOff & 7)
	var word uint64
	if tail := a.bits[byteOff:]; len(tail) >= 8 {
		word = binary.LittleEndian.Uint64(tail)
	} else {
		word = loadTail(tail)
	}
	return (word >> shift) & a.mask()
}

// Set stores v into field i. Bits of v above the field width must be zero;
// violating this corrupts neighbouring fields, so Set panics instead.
func (a *Array) Set(i int, v uint64) {
	if uint(i) >= uint(a.n) {
		panic(indexError{i, a.n})
	}
	if v&^a.mask() != 0 {
		panic(widthError{v, a.width})
	}
	switch a.width {
	case 8:
		a.bits[i] = byte(v)
		return
	case 16:
		binary.LittleEndian.PutUint16(a.bits[2*i:], uint16(v))
		return
	case 24:
		off := 3 * i
		a.bits[off] = byte(v)
		a.bits[off+1] = byte(v >> 8)
		a.bits[off+2] = byte(v >> 16)
		return
	case 32:
		binary.LittleEndian.PutUint32(a.bits[4*i:], uint32(v))
		return
	}
	bitOff := uint64(i) * uint64(a.width)
	byteOff := bitOff >> 3
	shift := uint(bitOff & 7)
	tail := a.bits[byteOff:]
	if len(tail) >= 8 {
		word := binary.LittleEndian.Uint64(tail)
		word &^= a.mask() << shift
		word |= v << shift
		binary.LittleEndian.PutUint64(tail, word)
		return
	}
	word := loadTail(tail)
	word &^= a.mask() << shift
	word |= v << shift
	for j := range tail {
		tail[j] = byte(word >> (8 * uint(j)))
	}
}

// A Slot locates a field for Store: the offset of the 8-byte word that
// holds it and the field's lowest bit in that word.
type Slot struct {
	off   int
	shift uint
}

// Load returns field i and its Slot: a read-modify-write of one field —
// the dense insert of Algorithm 2 — finds the field once and costs one
// 8-byte load and one 8-byte store. Load and Store are small enough to
// inline at the caller.
func (a *Array) Load(i int) (uint64, Slot) {
	if uint(i) >= uint(a.n) {
		panic(indexError{i, a.n})
	}
	bit := uint64(i) * uint64(a.width)
	off, shift := int(bit>>3), uint(bit&7)
	if off > a.last {
		shift += uint(off-a.last) * 8
		off = a.last
	}
	return binary.LittleEndian.Uint64(a.bits[off:off+8]) >> shift & (1<<a.width - 1), Slot{off, shift}
}

// Store writes v into the field Load located at s. Like Set it panics if v
// has bits above the field width.
func (a *Array) Store(s Slot, v uint64) {
	if v&^a.mask() != 0 {
		panic(widthError{v, a.width})
	}
	w := a.bits[s.off : s.off+8]
	binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)&^(a.mask()<<s.shift)|v<<s.shift)
}

// loadTail is the little-endian load for the last fields of the array,
// where fewer than eight bytes remain; the missing high bytes read as zero.
func loadTail(tail []byte) uint64 {
	var word uint64
	for j, b := range tail {
		word |= uint64(b) << (8 * uint(j))
	}
	return word
}

// indexError and widthError are the accessors' panics: values, not
// formatted strings, so that Load and Store inline.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitpack: index %d out of range [0,%d)", e.i, e.n)
}

type widthError struct {
	v uint64
	w uint
}

func (e widthError) Error() string {
	return fmt.Sprintf("bitpack: value %#x exceeds width %d", e.v, e.w)
}

func (a *Array) mask() uint64 {
	return (uint64(1) << a.width) - 1
}
