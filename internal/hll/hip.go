package hll

import "math"

// HIP adds martingale (historic inverse probability) estimation to an
// 8-bit HyperLogLog sketch, mirroring what the Apache DataSketches HLL
// implementations maintain during insertion. It makes estimation
// essentially free (a field read) and reduces the error from 1.04/√m to
// ≈ 0.836/√m, at the cost of being valid only for a single unmerged
// stream — the same trade-off as ExaLogLog's martingale mode.
type HIP struct {
	s *Dense8
	// estimate is the running HIP estimate; mu is the current state-change
	// probability Σ 2^-r_i / m, maintained incrementally.
	estimate float64
	mu       float64
}

// NewHIP creates an empty 8-bit HLL sketch with HIP tracking.
func NewHIP(p int) (*HIP, error) {
	s, err := NewDense8(p)
	if err != nil {
		return nil, err
	}
	return &HIP{s: s, mu: 1}, nil
}

// AddHash inserts an element by its 64-bit hash, updating the estimate
// whenever the state changes.
func (h *HIP) AddHash(hash uint64) {
	idx, k := splitHash(hash, h.s.p)
	old := h.s.regs[idx]
	if k <= old {
		return
	}
	h.estimate += 1 / h.mu
	m := float64(len(h.s.regs))
	h.mu -= (math.Exp2(-float64(old)) - math.Exp2(-float64(k))) / m
	h.s.regs[idx] = k
}

// Estimate returns the running HIP estimate.
func (h *HIP) Estimate() float64 { return h.estimate }

// Sketch exposes the underlying register sketch (for merging into
// ML-estimated aggregates; doing so invalidates no state here, but the
// HIP estimate of course only covers this stream).
func (h *HIP) Sketch() *Dense8 { return h.s }

// MemoryFootprint approximates total allocated bytes.
func (h *HIP) MemoryFootprint() int { return h.s.MemoryFootprint() + 16 }
