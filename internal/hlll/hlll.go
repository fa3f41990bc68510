// Package hlll implements a HyperLogLogLog-style sketch, re-created from
// the description in Karppa & Pagh (KDD 2022) and in the ExaLogLog paper's
// related-work section: HyperLogLog register values are stored in 3 bits
// relative to a global base offset, with out-of-range registers kept in a
// sparse exception list. The base is chosen to minimize the exception
// count, which compresses HLL by roughly 40 % but gives up the
// constant-time insert: whenever exceptions accumulate, every register is
// rewritten (O(m)), and on average inserts are far slower than plain HLL —
// the trade-off Table 2 and Figure 11 of the paper illustrate.
//
// The estimator is the original HyperLogLog estimator (with linear
// counting for small ranges), matching the reference implementation; its
// hard estimator switch produces the estimation-error spike around
// n ≈ 2.5m that the paper points out in Figure 10.
package hlll

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"exaloglog/internal/bitpack"
	"exaloglog/internal/hll"
)

// MinP and MaxP bound the precision parameter.
const (
	MinP = 2
	MaxP = 26
)

// regBits is the compressed register width. All 8 relative values 0..7
// are stored inline; registers outside the window live in the exception
// map, which is authoritative (an entry there overrides the 3-bit field).
const (
	regBits = 3
	window  = 1 << regBits // values base .. base+window-1 are inline
)

// Sketch is a HyperLogLogLog-style sketch with 2^p compressed registers.
type Sketch struct {
	p    int
	base uint8          // global offset B
	regs *bitpack.Array // 3-bit values relative to base; 7 = exception
	exc  map[int]uint8  // absolute values for out-of-window registers
	// rebaseAt is the exception count that triggers the next O(m) rebase
	// sweep (with hysteresis so a stable distribution doesn't thrash).
	rebaseAt int
	// rebases counts O(m) sweeps (diagnostics for the performance
	// experiments).
	rebases int
}

// New creates an empty sketch with 2^p registers.
func New(p int) (*Sketch, error) {
	if p < MinP || p > MaxP {
		return nil, fmt.Errorf("hlll: p=%d out of range [%d, %d]", p, MinP, MaxP)
	}
	m := 1 << uint(p)
	return &Sketch{
		p:        p,
		regs:     bitpack.New(m, regBits),
		exc:      make(map[int]uint8),
		rebaseAt: rebaseThreshold(m),
	}, nil
}

// rebaseThreshold is the baseline exception budget: ~3 % of the registers
// (at least 4). Beyond it a rebase sweep attempts to re-center the window.
func rebaseThreshold(m int) int {
	t := m / 32
	if t < 4 {
		t = 4
	}
	return t
}

// NumRegisters returns 2^p.
func (s *Sketch) NumRegisters() int { return 1 << uint(s.p) }

// Register returns the absolute value of register i.
func (s *Sketch) Register(i int) uint8 {
	if v, ok := s.exc[i]; ok {
		return v
	}
	return s.base + uint8(s.regs.Get(i))
}

// AddHash inserts an element by its 64-bit hash (HLL's Algorithm 1 update
// rule on the compressed representation).
func (s *Sketch) AddHash(h uint64) {
	idx := int(h >> uint(64-s.p))
	masked := h &^ (^uint64(0) << uint(64-s.p))
	k := uint8(bits.LeadingZeros64(masked) - s.p + 1)
	s.update(idx, k)
}

func (s *Sketch) update(idx int, k uint8) {
	if k <= s.Register(idx) {
		return
	}
	s.store(idx, k)
	if len(s.exc) > s.rebaseAt {
		s.rebase()
	}
}

// store writes absolute value k to register idx under the current base.
func (s *Sketch) store(idx int, k uint8) {
	rel := int(k) - int(s.base)
	if rel >= 0 && rel < window {
		s.regs.Set(idx, uint64(rel))
		delete(s.exc, idx)
	} else {
		s.exc[idx] = k
		s.regs.Set(idx, 0) // keep the packed array canonical
	}
}

// rebase chooses the base that minimizes the exception count and rewrites
// all registers — the O(m) step that makes inserts only amortized
// constant.
func (s *Sketch) rebase() {
	m := s.NumRegisters()
	var histo [66]int
	for i := 0; i < m; i++ {
		histo[s.Register(i)]++
	}
	// Pick the window [b, b+6] covering the most registers.
	bestB, bestCover := 0, -1
	cover := 0
	for v := 0; v < window && v < len(histo); v++ {
		cover += histo[v]
	}
	for b := 0; b+window <= len(histo); b++ {
		if cover > bestCover {
			bestCover, bestB = cover, b
		}
		cover -= histo[b]
		if b+window < len(histo) {
			cover += histo[b+window]
		}
	}
	newBase := uint8(bestB)
	if newBase != s.base {
		old := make([]uint8, m)
		for i := 0; i < m; i++ {
			old[i] = s.Register(i)
		}
		s.base = newBase
		for i := 0; i < m; i++ {
			s.store(i, old[i])
		}
		s.rebases++
	}
	// Hysteresis: if the optimal window still leaves many exceptions,
	// accept them and only re-try after they grow substantially.
	s.rebaseAt = rebaseThreshold(m)
	if len(s.exc) >= s.rebaseAt {
		s.rebaseAt = len(s.exc) + len(s.exc)/2 + 4
	}
}

// Merge folds other into s (register-wise maximum of absolute values).
func (s *Sketch) Merge(other *Sketch) error {
	if s.p != other.p {
		return fmt.Errorf("hlll: cannot merge p=%d with p=%d", s.p, other.p)
	}
	for i := 0; i < s.NumRegisters(); i++ {
		if v := other.Register(i); v > 0 {
			s.update(i, v)
		}
	}
	return nil
}

// Estimate returns the original HLL estimator's value.
func (s *Sketch) Estimate() float64 {
	histo := make([]int32, 66-s.p)
	for i := 0; i < s.NumRegisters(); i++ {
		histo[s.Register(i)]++
	}
	return hll.EstimateRawHistogram(histo, s.p)
}

// MemoryFootprint approximates total allocated bytes including the
// exception map's overhead.
func (s *Sketch) MemoryFootprint() int {
	return s.regs.SizeBytes() + 48 + 16*len(s.exc) + 64
}

// MarshalBinary serializes base, registers and sorted exceptions.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 2+s.regs.SizeBytes()+4+5*len(s.exc))
	out = append(out, byte(s.p), s.base)
	out = append(out, s.regs.Bytes()...)
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(s.exc)))
	out = append(out, buf[:]...)
	keys := make([]int, 0, len(s.exc))
	for k := range s.exc {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[:], uint32(k))
		out = append(out, buf[:]...)
		out = append(out, s.exc[k])
	}
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("hlll: data too short")
	}
	p := int(data[0])
	if p < MinP || p > MaxP {
		return fmt.Errorf("hlll: bad precision %d", p)
	}
	m := 1 << uint(p)
	regBytes := (m*regBits + 7) / 8
	need := 2 + regBytes + 4
	if len(data) < need {
		return fmt.Errorf("hlll: data too short for p=%d", p)
	}
	regs, err := bitpack.FromBytes(data[2:2+regBytes], m, regBits)
	if err != nil {
		return err
	}
	nExc := int(binary.LittleEndian.Uint32(data[2+regBytes:]))
	pos := need
	if len(data) != pos+5*nExc {
		return fmt.Errorf("hlll: exception section malformed")
	}
	s.p = p
	s.base = data[1]
	s.regs = regs
	s.exc = make(map[int]uint8, nExc)
	for i := 0; i < nExc; i++ {
		k := int(binary.LittleEndian.Uint32(data[pos:]))
		s.exc[k] = data[pos+4]
		pos += 5
	}
	s.rebaseAt = rebaseThreshold(m)
	if len(s.exc) >= s.rebaseAt {
		s.rebaseAt = len(s.exc) + len(s.exc)/2 + 4
	}
	return nil
}
