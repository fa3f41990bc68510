// Package bitpack provides densely packed arrays of fixed-width bit fields.
//
// ExaLogLog registers occupy 6+t+d bits each; for the configurations the
// paper recommends this is 16, 24, 28 or 32 bits. The Array type stores n
// such fields back to back in a byte slice so that the total footprint is
// exactly ceil(n*w/8) bytes, matching the paper's space accounting. Widths
// of 8, 16, 24 and 32 bits use dedicated fast paths; every width from 1 to
// 57 bits is supported through a generic path that never reads past the
// underlying slice. The slice carries no padding: a power-of-two count of
// 28-bit registers is a round number of bytes (14 336 at p = 12) that sits
// exactly in an allocator size class, and even a few bytes more would push
// it into the next one (16 384).
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
	nbits := uint64(n) * uint64(width)
	return &Array{
		bits:  make([]byte, (nbits+7)/8),
		n:     n,
		width: width,
	}
}

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

// Width returns the field width in bits.
func (a *Array) Width() uint { return a.width }

// SizeBytes returns the exact serialized size in bytes: ceil(n*w/8).
func (a *Array) SizeBytes() int { return len(a.bits) }

// Bytes returns the packed representation, exactly SizeBytes() long. The
// returned slice aliases the array's storage; callers must copy it before
// mutating the array if they need a stable snapshot.
func (a *Array) Bytes() []byte { return a.bits }

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	c := &Array{
		bits:  make([]byte, len(a.bits)),
		n:     a.n,
		width: a.width,
	}
	copy(c.bits, a.bits)
	return c
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
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, a.n))
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
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, a.n))
	}
	if v&^a.mask() != 0 {
		panic(fmt.Sprintf("bitpack: value %#x exceeds width %d", v, a.width))
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

// loadTail is the little-endian load for the last fields of the array,
// where fewer than eight bytes remain; the missing high bytes read as zero.
func loadTail(tail []byte) uint64 {
	var word uint64
	for j, b := range tail {
		word |= uint64(b) << (8 * uint(j))
	}
	return word
}

func (a *Array) mask() uint64 {
	return (uint64(1) << a.width) - 1
}
