package hll

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Dense4 is a DataSketches-style HyperLogLog with 4-bit registers. Each
// register stores its value relative to a global offset; values that do
// not fit into the nibble range [0, 14] are kept in an exception map
// (value 15 marks an exception). When every register exceeds the current
// offset the offset advances and all registers are rewritten — this is why
// the insert operation is only amortized constant and O(m) in the worst
// case, the trade-off the paper points out for compressed-register
// designs (Section 1.1).
type Dense4 struct {
	p          int
	offset     uint8
	nibbles    []uint8 // two registers per byte
	exceptions map[int]uint8
	// belowCount counts registers whose relative value is 0; when it hits
	// zero the offset can advance.
	belowCount int
}

const d4Exception = 15

// NewDense4 creates an empty 4-bit HLL sketch with 2^p registers.
func NewDense4(p int) (*Dense4, error) {
	if p < MinP || p > MaxP {
		return nil, fmt.Errorf("hll: p=%d out of range [%d, %d]", p, MinP, MaxP)
	}
	m := 1 << uint(p)
	return &Dense4{
		p:          p,
		nibbles:    make([]uint8, m/2),
		exceptions: make(map[int]uint8),
		belowCount: m,
	}, nil
}

// NumRegisters returns 2^p.
func (s *Dense4) NumRegisters() int { return 1 << uint(s.p) }

func (s *Dense4) nibble(i int) uint8 {
	b := s.nibbles[i>>1]
	if i&1 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

func (s *Dense4) setNibble(i int, v uint8) {
	b := s.nibbles[i>>1]
	if i&1 == 0 {
		b = b&0xf0 | v
	} else {
		b = b&0x0f | v<<4
	}
	s.nibbles[i>>1] = b
}

// Register returns the absolute value of register i.
func (s *Dense4) Register(i int) uint8 {
	n := s.nibble(i)
	if n == d4Exception {
		return s.exceptions[i]
	}
	return s.offset + n
}

// AddHash inserts an element by its 64-bit hash.
func (s *Dense4) AddHash(h uint64) {
	idx, k := splitHash(h, s.p)
	s.update(idx, k)
}

func (s *Dense4) update(idx int, k uint8) {
	cur := s.Register(idx)
	if k <= cur {
		return
	}
	old := s.nibble(idx)
	rel := int(k) - int(s.offset)
	if rel >= d4Exception {
		s.exceptions[idx] = k
		s.setNibble(idx, d4Exception)
	} else {
		s.setNibble(idx, uint8(rel))
		delete(s.exceptions, idx)
	}
	if old == 0 {
		s.belowCount--
		if s.belowCount == 0 {
			s.advanceOffset()
		}
	}
}

// advanceOffset raises the global offset to the minimum register value and
// rewrites every nibble — the O(m) step.
func (s *Dense4) advanceOffset() {
	m := s.NumRegisters()
	minVal := s.Register(0)
	for i := 1; i < m; i++ {
		if v := s.Register(i); v < minVal {
			minVal = v
		}
	}
	if minVal <= s.offset {
		// Cannot advance (some exception below offset+1 — impossible by
		// construction, but keep the counter consistent).
		s.recountBelow()
		return
	}
	newOff := minVal
	for i := 0; i < m; i++ {
		v := s.Register(i)
		rel := int(v) - int(newOff)
		if rel >= d4Exception {
			s.exceptions[i] = v
			s.setNibble(i, d4Exception)
		} else {
			s.setNibble(i, uint8(rel))
			delete(s.exceptions, i)
		}
	}
	s.offset = newOff
	s.recountBelow()
}

func (s *Dense4) recountBelow() {
	s.belowCount = 0
	for i := 0; i < s.NumRegisters(); i++ {
		if s.nibble(i) == 0 {
			s.belowCount++
		}
	}
}

// Merge folds other into s (register-wise maximum of absolute values).
func (s *Dense4) Merge(other *Dense4) error {
	if s.p != other.p {
		return fmt.Errorf("hll: cannot merge p=%d with p=%d", s.p, other.p)
	}
	for i := 0; i < s.NumRegisters(); i++ {
		if v := other.Register(i); v > 0 {
			s.update(i, v)
		}
	}
	return nil
}

func (s *Dense4) histogram() []int32 {
	histo := make([]int32, 66-s.p)
	for i := 0; i < s.NumRegisters(); i++ {
		histo[s.Register(i)]++
	}
	return histo
}

// Estimate returns the corrected original estimator.
func (s *Dense4) Estimate() float64 { return estimateRaw(s.histogram(), s.p) }

// MemoryFootprint approximates total allocated bytes, including map
// overhead (~48 bytes per bucket-eight entries plus header).
func (s *Dense4) MemoryFootprint() int {
	mapOverhead := 48 + len(s.exceptions)*16
	return len(s.nibbles) + mapOverhead + 64
}

// MarshalBinary serializes offset, nibbles, and sorted exceptions.
func (s *Dense4) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 2+len(s.nibbles)+5*len(s.exceptions)+4)
	out = append(out, byte(s.p), s.offset)
	out = append(out, s.nibbles...)
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(s.exceptions)))
	out = append(out, buf[:]...)
	keys := make([]int, 0, len(s.exceptions))
	for k := range s.exceptions {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[:], uint32(k))
		out = append(out, buf[:]...)
		out = append(out, s.exceptions[k])
	}
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Dense4) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("hll: dense4 data too short")
	}
	p := int(data[0])
	if p < MinP || p > MaxP {
		return fmt.Errorf("hll: bad precision %d", p)
	}
	m := 1 << uint(p)
	need := 2 + m/2 + 4
	if len(data) < need {
		return fmt.Errorf("hll: dense4 data too short for p=%d", p)
	}
	s.p = p
	s.offset = data[1]
	s.nibbles = append([]uint8(nil), data[2:2+m/2]...)
	nExc := int(binary.LittleEndian.Uint32(data[2+m/2:]))
	pos := 2 + m/2 + 4
	if len(data) != pos+5*nExc {
		return fmt.Errorf("hll: dense4 exception section malformed")
	}
	s.exceptions = make(map[int]uint8, nExc)
	for i := 0; i < nExc; i++ {
		k := int(binary.LittleEndian.Uint32(data[pos:]))
		s.exceptions[k] = data[pos+4]
		pos += 5
	}
	s.recountBelow()
	return nil
}
