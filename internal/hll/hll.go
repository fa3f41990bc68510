// Package hll implements the HyperLogLog baselines that the paper's
// evaluation compares ExaLogLog against (Table 2, Figures 10-11):
//
//   - Dense8: one byte per register, the simplest layout
//     ("HLL, 8-bit registers" row).
//   - Dense6: the standard 6-bit packed layout of Heule et al.
//     ("HLL, 6-bit registers" row), supporting counts up to 2^64.
//   - Dense4: a DataSketches-style 4-bit layout storing register values
//     relative to a global offset, with out-of-range values kept in an
//     exception map ("HLL, 4-bit registers" row). Inserts are amortized
//     constant but O(m) in the worst case when the offset advances.
//
// All variants share the update rule of Algorithm 1 of the paper: a 64-bit
// hash is split into a p-bit register index and the update value
// k = nlz(masked hash) - p + 1 ∈ [1, 65-p]; registers keep the maximum.
//
// Two estimators are provided: the original Flajolet estimator with
// small-range (linear counting) correction, used by the DataSketches-like
// rows, and an Ertl-style maximum-likelihood estimator (the "HLL ML
// estimator" row) built on the unified likelihood shape the paper derives
// (HLL is the special case ELL(0,0), Section 2.5).
package hll

import (
	"fmt"
	"math"
	"math/bits"

	"exaloglog/internal/bitpack"
	"exaloglog/internal/core"
	"exaloglog/internal/zeta"
)

// MinP and MaxP bound the precision parameter.
const (
	MinP = 2
	MaxP = 26
)

// splitHash computes the register index and update value of Algorithm 1.
func splitHash(h uint64, p int) (idx int, k uint8) {
	idx = int(h >> uint(64-p))
	masked := h &^ (^uint64(0) << uint(64-p))
	k = uint8(bits.LeadingZeros64(masked) - p + 1)
	return idx, k
}

// Dense6 is a HyperLogLog sketch with densely packed 6-bit registers.
type Dense6 struct {
	p    int
	regs *bitpack.Array
}

// NewDense6 creates an empty 6-bit HLL sketch with 2^p registers.
func NewDense6(p int) (*Dense6, error) {
	if p < MinP || p > MaxP {
		return nil, fmt.Errorf("hll: p=%d out of range [%d, %d]", p, MinP, MaxP)
	}
	return &Dense6{p: p, regs: bitpack.New(1<<uint(p), 6)}, nil
}

// NumRegisters returns 2^p.
func (s *Dense6) NumRegisters() int { return 1 << uint(s.p) }

// AddHash inserts an element by its 64-bit hash (Algorithm 1).
func (s *Dense6) AddHash(h uint64) {
	idx, k := splitHash(h, s.p)
	if uint64(k) > s.regs.Get(idx) {
		s.regs.Set(idx, uint64(k))
	}
}

// Merge folds other into s (register-wise maximum).
func (s *Dense6) Merge(other *Dense6) error {
	if s.p != other.p {
		return fmt.Errorf("hll: cannot merge p=%d with p=%d", s.p, other.p)
	}
	for i := 0; i < s.NumRegisters(); i++ {
		if v := other.regs.Get(i); v > s.regs.Get(i) {
			s.regs.Set(i, v)
		}
	}
	return nil
}

// Estimate returns the corrected original estimator (see estimateRaw).
func (s *Dense6) Estimate() float64 {
	return estimateRaw(s.histogram(), s.p)
}

// EstimateML returns the Ertl-style maximum-likelihood estimate.
func (s *Dense6) EstimateML() float64 {
	return estimateML(s.histogram(), s.p)
}

func (s *Dense6) histogram() []int32 {
	histo := make([]int32, 66-s.p)
	for i := 0; i < s.NumRegisters(); i++ {
		histo[s.regs.Get(i)]++
	}
	return histo
}

// SizeBytes returns the packed register size: ceil(6m/8) bytes.
func (s *Dense6) SizeBytes() int { return s.regs.SizeBytes() }

// MemoryFootprint approximates total allocated bytes.
func (s *Dense6) MemoryFootprint() int { return s.SizeBytes() + 64 }

// MarshalBinary serializes the register array (plain copy).
func (s *Dense6) MarshalBinary() ([]byte, error) {
	out := make([]byte, 1+s.regs.SizeBytes())
	out[0] = byte(s.p)
	copy(out[1:], s.regs.Bytes())
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Dense6) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("hll: empty data")
	}
	p := int(data[0])
	if p < MinP || p > MaxP {
		return fmt.Errorf("hll: bad precision %d", p)
	}
	regs, err := bitpack.FromBytes(data[1:], 1<<uint(p), 6)
	if err != nil {
		return err
	}
	s.p = p
	s.regs = regs
	return nil
}

// Dense8 is a HyperLogLog sketch with one byte per register. It trades
// 25 % more space than Dense6 for the fastest possible register access.
type Dense8 struct {
	p    int
	regs []uint8
}

// NewDense8 creates an empty 8-bit HLL sketch with 2^p registers.
func NewDense8(p int) (*Dense8, error) {
	if p < MinP || p > MaxP {
		return nil, fmt.Errorf("hll: p=%d out of range [%d, %d]", p, MinP, MaxP)
	}
	return &Dense8{p: p, regs: make([]uint8, 1<<uint(p))}, nil
}

// AddHash inserts an element by its 64-bit hash.
func (s *Dense8) AddHash(h uint64) {
	idx, k := splitHash(h, s.p)
	if k > s.regs[idx] {
		s.regs[idx] = k
	}
}

// Merge folds other into s.
func (s *Dense8) Merge(other *Dense8) error {
	if s.p != other.p {
		return fmt.Errorf("hll: cannot merge p=%d with p=%d", s.p, other.p)
	}
	for i, v := range other.regs {
		if v > s.regs[i] {
			s.regs[i] = v
		}
	}
	return nil
}

// Estimate returns the corrected original estimator.
func (s *Dense8) Estimate() float64 {
	return estimateRaw(s.histogram(), s.p)
}

func (s *Dense8) histogram() []int32 {
	histo := make([]int32, 66-s.p)
	for _, r := range s.regs {
		histo[r]++
	}
	return histo
}

// MemoryFootprint approximates total allocated bytes.
func (s *Dense8) MemoryFootprint() int { return len(s.regs) + 48 }

// MarshalBinary serializes the register array.
func (s *Dense8) MarshalBinary() ([]byte, error) {
	out := make([]byte, 1+len(s.regs))
	out[0] = byte(s.p)
	copy(out[1:], s.regs)
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Dense8) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("hll: empty data")
	}
	p := int(data[0])
	if p < MinP || p > MaxP || len(data)-1 != 1<<uint(p) {
		return fmt.Errorf("hll: bad payload")
	}
	s.p = p
	s.regs = append([]uint8(nil), data[1:]...)
	return nil
}

// EstimateRawHistogram exposes the corrected original estimator for other
// register-histogram-based sketches (HyperLogLogLog reuses it; its reported
// estimation spike near n ≈ 2.5m stems from this estimator's hard switch
// out of linear counting).
func EstimateRawHistogram(histo []int32, p int) float64 {
	return estimateRaw(histo, p)
}

// estimateRaw is the original HyperLogLog estimator of Flajolet et al.
// with the small-range linear-counting correction of Heule et al. The
// large-range correction is unnecessary with 64-bit hashes.
func estimateRaw(histo []int32, p int) float64 {
	m := float64(int(1) << uint(p))
	var alpha float64
	switch {
	case p == 4:
		alpha = 0.673
	case p == 5:
		alpha = 0.697
	case p == 6:
		alpha = 0.709
	default:
		alpha = 0.7213 / (1 + 1.079/m)
	}
	sum := 0.0
	for k, c := range histo {
		if c > 0 {
			sum += float64(c) * math.Exp2(-float64(k))
		}
	}
	e := alpha * m * m / sum
	if zeros := histo[0]; e <= 2.5*m && zeros > 0 {
		// Linear counting.
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// estimateML computes the maximum-likelihood estimate for an HLL register
// histogram using the unified likelihood machinery: HLL is ELL(0,0), so
// the coefficients are α = Σ ω(u) with ω(u) = 2^-min(u,64-p)·(1+max(0,
// u-(64-p))) ... computed exactly like Algorithm 3 with t=0, d=0, and the
// same Newton solver applies. A first-order bias correction with
// c = ln(2)·3·ζ(3,2)/ζ(2,2)² is applied (equation (4) with b=2, d=0).
func estimateML(histo []int32, p int) float64 {
	cap64 := 64 - p
	beta := make([]int32, cap64)
	var alphaScaled uint64 // α·2^(64-p), exact
	var aHi uint64
	for u, c := range histo {
		if c == 0 {
			continue
		}
		phi := u
		if phi > cap64 {
			phi = cap64
		}
		if u >= 1 {
			beta[phi-1] += c
		}
		// ω(u) = (1+φ(u)-u)/2^φ(u); scaled by 2^(64-p).
		num := uint64(1 + phi - u)
		contrib := num << uint(cap64-phi)
		lo, carry := bits.Add64(alphaScaled, contrib*uint64(c), 0)
		alphaScaled = lo
		aHi += carry
		// contrib*c can overflow only if all registers are empty and
		// m = 2^26; the histogram bounds c by m <= 2^26 and contrib by
		// 2^62, so accumulate in 128 bits to stay exact.
	}
	alpha := math.Ldexp(float64(aHi), p) + math.Ldexp(float64(alphaScaled), p-64)
	m := float64(int(1) << uint(p))
	raw := core.SolveML(core.Coefficients{Alpha: alpha, Beta: beta, Lo: 1}, m)
	return raw / (1 + hllBiasC/m)
}

// hllBiasC is the first-order ML bias constant of equation (4) at b=2,
// d=0: ln2·(1+2)·ζ(3,2)/ζ(2,2)².
var hllBiasC = math.Ln2 * 3 * zeta.Hurwitz(3, 2) / (zeta.Hurwitz(2, 2) * zeta.Hurwitz(2, 2))
