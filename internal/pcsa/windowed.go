package pcsa

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Windowed is a CPC-style compact in-memory representation of a PCSA
// sketch. Instead of 64 raw bitmap bits per register it keeps a 16-bit
// window starting at a global offset: bits below the offset are implicitly
// one (the offset only advances when that is true for every register), and
// registers with any bit set above the window — or, transiently, irregular
// low bits — are kept whole in a small exception map.
//
// This mirrors the design trade-off of the Apache DataSketches CPC sketch
// that Table 2 of the ExaLogLog paper documents: the in-memory footprint
// is a fraction of the raw bitmaps (≈ 2 bytes per register), but the
// insert operation is only amortized constant, since advancing the offset
// rewrites all registers.
type Windowed struct {
	p      int
	offset int            // bits [0, offset) are implicitly one
	win    []uint16       // bits [offset, offset+16) per register
	exc    map[int]uint64 // full raw bitmaps for irregular registers
	// lowZero counts regular registers whose window bit 0 (= absolute bit
	// `offset`) is still zero; the offset can advance when it reaches
	// zero and no exception has a zero below offset+1.
	lowZero int
}

const windowBits = 16

// NewWindowed creates an empty windowed PCSA sketch with 2^p registers.
func NewWindowed(p int) (*Windowed, error) {
	if p < MinP || p > MaxP {
		return nil, fmt.Errorf("pcsa: p=%d out of range [%d, %d]", p, MinP, MaxP)
	}
	m := 1 << uint(p)
	return &Windowed{
		p:       p,
		win:     make([]uint16, m),
		exc:     make(map[int]uint64),
		lowZero: m,
	}, nil
}

// Bitmap reconstructs the full 64-bit first-hit bitmap of register i.
func (s *Windowed) Bitmap(i int) uint64 {
	if b, ok := s.exc[i]; ok {
		return b
	}
	return uint64(1)<<uint(s.offset) - 1 | uint64(s.win[i])<<uint(s.offset)
}

// setBitmap stores a raw bitmap, choosing the windowed or exception
// representation and maintaining the lowZero counter.
func (s *Windowed) setBitmap(i int, b uint64) {
	_, wasExc := s.exc[i]
	wasLowZero := !wasExc && s.win[i]&1 == 0

	low := uint64(1)<<uint(s.offset) - 1
	fits := b&low == low && b>>uint(s.offset+windowBits) == 0
	if fits {
		s.win[i] = uint16(b >> uint(s.offset))
		if wasExc {
			delete(s.exc, i)
		}
	} else {
		s.exc[i] = b
		s.win[i] = 0
	}

	isLowZero := fits && s.win[i]&1 == 0
	if wasLowZero && !isLowZero {
		s.lowZero--
	} else if !wasLowZero && isLowZero {
		s.lowZero++
	}
	if s.lowZero == 0 {
		s.tryAdvance()
	}
}

// tryAdvance moves the offset forward while every register has all bits
// below the new offset set — the O(m) consolidation step.
func (s *Windowed) tryAdvance() {
	for {
		// All regular registers have window bit 0 set (lowZero == 0);
		// exceptions must also have bit `offset` set to advance.
		if s.lowZero != 0 {
			return
		}
		for _, b := range s.exc {
			if b&(uint64(1)<<uint(s.offset)) == 0 {
				return
			}
		}
		// Advance by one: every register's bit `offset` is set.
		raw := make([]uint64, len(s.win))
		for i := range s.win {
			raw[i] = s.Bitmap(i)
		}
		s.offset++
		s.exc = make(map[int]uint64)
		s.lowZero = 0
		low := uint64(1)<<uint(s.offset) - 1
		for i, b := range raw {
			if b&low == low && b>>uint(s.offset+windowBits) == 0 {
				s.win[i] = uint16(b >> uint(s.offset))
				if s.win[i]&1 == 0 {
					s.lowZero++
				}
			} else {
				s.exc[i] = b
				s.win[i] = 0
			}
		}
		if s.lowZero != 0 {
			return
		}
	}
}

// AddHash inserts an element by its 64-bit hash (same split as Sketch).
func (s *Windowed) AddHash(h uint64) {
	idx := int(h >> uint(64-s.p))
	masked := h &^ (^uint64(0) << uint(64-s.p))
	k := bits.LeadingZeros64(masked) - s.p + 1
	bit := uint64(1) << uint(k-1)
	b := s.Bitmap(idx)
	if b&bit == 0 {
		s.setBitmap(idx, b|bit)
	}
}

// Merge folds other into s (bitwise OR of the reconstructed bitmaps).
func (s *Windowed) Merge(other *Windowed) error {
	if s.p != other.p {
		return fmt.Errorf("pcsa: cannot merge p=%d with p=%d", s.p, other.p)
	}
	for i := range s.win {
		b := s.Bitmap(i) | other.Bitmap(i)
		if b != s.Bitmap(i) {
			s.setBitmap(i, b)
		}
	}
	return nil
}

// EstimateML returns the unified maximum-likelihood estimate
// (estimateBitmapsML over the reconstructed bitmaps).
func (s *Windowed) EstimateML() float64 {
	return estimateBitmapsML(s.p, len(s.win), s.Bitmap)
}

// MemoryFootprint approximates total allocated bytes: 2 bytes per register
// plus the exception map.
func (s *Windowed) MemoryFootprint() int {
	return 2*len(s.win) + 48 + 24*len(s.exc) + 64
}

// MarshalCompressed serializes the sketch with the entropy coder — the
// expensive, small CPC-like serialization path.
func (s *Windowed) MarshalCompressed() ([]byte, error) {
	raw, err := s.toDense()
	if err != nil {
		return nil, err
	}
	return raw.MarshalCompressed()
}

// MarshalBinary serializes the windowed form directly (fast path).
func (s *Windowed) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 2+2*len(s.win)+4+12*len(s.exc))
	out = append(out, byte(s.p), byte(s.offset))
	var buf [8]byte
	for _, w := range s.win {
		binary.LittleEndian.PutUint16(buf[:2], w)
		out = append(out, buf[:2]...)
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(s.exc)))
	out = append(out, buf[:4]...)
	keys := make([]int, 0, len(s.exc))
	for k := range s.exc {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[:4], uint32(k))
		out = append(out, buf[:4]...)
		binary.LittleEndian.PutUint64(buf[:], s.exc[k])
		out = append(out, buf[:]...)
	}
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Windowed) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("pcsa: windowed data too short")
	}
	p := int(data[0])
	if p < MinP || p > MaxP {
		return fmt.Errorf("pcsa: bad precision %d", p)
	}
	m := 1 << uint(p)
	need := 2 + 2*m + 4
	if len(data) < need {
		return fmt.Errorf("pcsa: windowed data too short for p=%d", p)
	}
	s.p = p
	s.offset = int(data[1])
	s.win = make([]uint16, m)
	for i := range s.win {
		s.win[i] = binary.LittleEndian.Uint16(data[2+2*i:])
	}
	nExc := int(binary.LittleEndian.Uint32(data[2+2*m:]))
	pos := need
	if len(data) != pos+12*nExc {
		return fmt.Errorf("pcsa: windowed exception section malformed")
	}
	s.exc = make(map[int]uint64, nExc)
	for i := 0; i < nExc; i++ {
		k := int(binary.LittleEndian.Uint32(data[pos:]))
		s.exc[k] = binary.LittleEndian.Uint64(data[pos+4:])
		pos += 12
	}
	s.lowZero = 0
	for i := range s.win {
		if _, isExc := s.exc[i]; !isExc && s.win[i]&1 == 0 {
			s.lowZero++
		}
	}
	return nil
}

// toDense converts to the raw-bitmap representation.
func (s *Windowed) toDense() (*Sketch, error) {
	raw, err := New(s.p)
	if err != nil {
		return nil, err
	}
	for i := range s.win {
		raw.maps[i] = s.Bitmap(i)
	}
	return raw, nil
}
