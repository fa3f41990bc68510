// Package pcsa implements probabilistic counting with stochastic averaging
// (PCSA, also known as the FM-sketch), the predecessor of HyperLogLog, and
// a CPC-like compressed serialization of it.
//
// A PCSA sketch keeps, per register, the full bitmap of update values
// observed — not just the maximum. Section 2.5 of the ExaLogLog paper notes
// that PCSA (and the CPC sketch built on it) stores exactly the same
// information as an ELL(0, 64) sketch, just encoded differently. Two
// consequences exploited here:
//
//   - the unified maximum-likelihood machinery of the paper applies
//     directly (Section 6 suggests exactly this), and
//   - the bitmap state is highly compressible; entropy-coding the
//     serialized form yields the small serialized MVP that makes CPC
//     attractive, at the cost of an expensive serialization step
//     (Table 2, Section 5.3).
package pcsa

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"exaloglog/internal/compress"
	"exaloglog/internal/core"
)

// MinP and MaxP bound the precision parameter.
const (
	MinP = 2
	MaxP = 20
)

// fmPhi is the correction constant of the original Flajolet-Martin
// estimator: E[R] ≈ log2(φ·n/m) with φ ≈ 0.77351.
const fmPhi = 0.77351

// Sketch is a PCSA sketch with 2^p registers, each a 64-bit first-hit
// bitmap: bit k-1 of register i is set iff update value k has been
// observed for register i.
type Sketch struct {
	p    int
	maps []uint64
}

// New creates an empty PCSA sketch with 2^p registers.
func New(p int) (*Sketch, error) {
	if p < MinP || p > MaxP {
		return nil, fmt.Errorf("pcsa: p=%d out of range [%d, %d]", p, MinP, MaxP)
	}
	return &Sketch{p: p, maps: make([]uint64, 1<<uint(p))}, nil
}

// AddHash inserts an element by its 64-bit hash. Like HLL's Algorithm 1,
// the top p bits select a register and the update value is the number of
// leading zeros of the remaining bits plus one.
func (s *Sketch) AddHash(h uint64) {
	idx := int(h >> uint(64-s.p))
	masked := h &^ (^uint64(0) << uint(64-s.p))
	k := bits.LeadingZeros64(masked) - s.p + 1 // in [1, 65-p]
	s.maps[idx] |= uint64(1) << uint(k-1)
}

// EstimateFM returns the classic Flajolet-Martin estimate
// m/φ · 2^(ΣR_i/m), where R_i is the position of the lowest unset bit of
// register i. It is retained for historical comparison; the ML estimate
// (Windowed.EstimateML) is uniformly better.
func (s *Sketch) EstimateFM() float64 {
	sum := 0.0
	for _, b := range s.maps {
		sum += float64(bits.TrailingZeros64(^b))
	}
	m := float64(len(s.maps))
	return m / fmPhi * math.Exp2(sum/m)
}

// estimateBitmapsML is the maximum-likelihood estimate over per-register
// first-hit bitmaps, computed through the unified likelihood shape (15) of
// the ExaLogLog paper: every bitmap bit k contributes β_φ(k) when set and
// α mass 2^-φ(k) when unset, with φ(k) = min(k, 64-p).
func estimateBitmapsML(p, m int, bitmap func(int) uint64) float64 {
	cap64 := 64 - p
	kmax := 65 - p
	beta := make([]int32, cap64)
	var aLo, aHi uint64
	for i := 0; i < m; i++ {
		b := bitmap(i)
		for k := 1; k <= kmax; k++ {
			phi := k
			if phi > cap64 {
				phi = cap64
			}
			if b&(uint64(1)<<uint(k-1)) != 0 {
				beta[phi-1]++
			} else {
				var carry uint64
				aLo, carry = bits.Add64(aLo, uint64(1)<<uint(cap64-phi), 0)
				aHi += carry
			}
		}
	}
	alpha := math.Ldexp(float64(aHi), p) + math.Ldexp(float64(aLo), p-64)
	return core.SolveML(core.Coefficients{Alpha: alpha, Beta: beta, Lo: 1}, float64(m))
}

// MarshalBinary serializes the raw bitmaps (fast, uncompressed).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	out := make([]byte, 1+8*len(s.maps))
	out[0] = byte(s.p)
	for i, b := range s.maps {
		binary.LittleEndian.PutUint64(out[1+8*i:], b)
	}
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("pcsa: empty data")
	}
	p := int(data[0])
	if p < MinP || p > MaxP || len(data) != 1+8<<uint(p) {
		return fmt.Errorf("pcsa: malformed payload")
	}
	s.p = p
	s.maps = make([]uint64, 1<<uint(p))
	for i := range s.maps {
		s.maps[i] = binary.LittleEndian.Uint64(data[1+8*i:])
	}
	return nil
}

// compressedContexts is the number of adaptive contexts used by the
// entropy coder: one per bit position k (the set-probability of bit k
// depends only on k and n/m, so position is the natural context).
const compressedContexts = 64

// MarshalCompressed serializes the sketch with adaptive entropy coding —
// the CPC-like path. It is much smaller than MarshalBinary near and beyond
// n ≈ m but deliberately expensive (it visits every bit through the range
// coder), mirroring CPC's costly consolidation/compression step that the
// paper's Section 5.3 measures.
func (s *Sketch) MarshalCompressed() ([]byte, error) {
	enc := compress.NewEncoder()
	model := compress.NewModel(compressedContexts)
	kmax := 65 - s.p
	for _, b := range s.maps {
		for k := 1; k <= kmax; k++ {
			enc.EncodeBit(model, k-1, int(b>>uint(k-1)&1))
		}
	}
	body := enc.Close()
	out := make([]byte, 0, 1+len(body))
	out = append(out, byte(s.p))
	out = append(out, body...)
	return out, nil
}

// UnmarshalCompressed restores a sketch serialized by MarshalCompressed.
func (s *Sketch) UnmarshalCompressed(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("pcsa: empty data")
	}
	p := int(data[0])
	if p < MinP || p > MaxP {
		return fmt.Errorf("pcsa: bad precision %d", p)
	}
	dec := compress.NewDecoder(data[1:])
	model := compress.NewModel(compressedContexts)
	s.p = p
	s.maps = make([]uint64, 1<<uint(p))
	kmax := 65 - p
	for i := range s.maps {
		var b uint64
		for k := 1; k <= kmax; k++ {
			if dec.DecodeBit(model, k-1) == 1 {
				b |= uint64(1) << uint(k-1)
			}
		}
		s.maps[i] = b
	}
	return nil
}
