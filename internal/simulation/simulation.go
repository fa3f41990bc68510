// Package simulation implements the error-simulation methodology of
// Section 5.1 of the paper.
//
// Because good 64-bit hash outputs are indistinguishable from uniform
// random values, inserting n distinct elements is equivalent to inserting
// n random 64-bit values, so no real data sets are needed. Two strategies
// are combined:
//
//   - Direct simulation: generate one random hash per distinct element.
//     Used up to a configurable limit (the paper uses 10^6).
//   - Waiting-time ("fast") simulation: beyond the limit, sample for every
//     (register, update value) pair the geometrically distributed distinct
//     count at which that pair next occurs (success probability
//     ρ_update(k)/m), sort these events, and replay them. Since a pair can
//     modify a register at most once, one event per pair suffices. This
//     allows simulating distinct counts up to 10^21 — the exa-scale range
//     of Figure 8 — in milliseconds per run.
//
// Event times beyond 2^53 lose integer granularity in float64; at those
// scales the granularity loss is many orders of magnitude below the
// waiting-time randomness and has no statistical effect.
package simulation

import (
	"math"
	"sort"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

// Result is the pair of estimates measured at one checkpoint of one run.
type Result struct {
	// N is the true distinct count at the checkpoint.
	N float64
	// ML is the bias-corrected maximum-likelihood estimate.
	ML float64
	// Martingale is the martingale estimate (NaN when disabled).
	Martingale float64
}

// Checkpoints returns logarithmically spaced distinct counts from 1 to
// max, with roughly perDecade points per decade (1, 2, 5 pattern for
// perDecade = 3).
func Checkpoints(max float64, perDecade int) []float64 {
	var out []float64
	for decade := 1.0; decade <= max; decade *= 10 {
		for i := 0; i < perDecade; i++ {
			v := decade * math.Pow(10, float64(i)/float64(perDecade))
			v = math.Round(v)
			if v > max {
				break
			}
			if len(out) == 0 || v > out[len(out)-1] {
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 || out[len(out)-1] < max {
		out = append(out, max)
	}
	return out
}

// rng is a SplitMix64-based random source. The seed is passed through the
// SplitMix64 finalizer first: raw seeds that differ by a multiple of the
// golden-ratio increment would otherwise produce overlapping shifts of the
// same stream and silently correlate "independent" runs.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	return &rng{state: hashing.Mix64(seed) ^ seed}
}

func (r *rng) next() uint64 { return hashing.SplitMix64(&r.state) }

// uniform returns a float64 in (0, 1].
func (r *rng) uniform() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// event is one waiting-time event: pair (register, update value) occurring
// at distinct count t.
type event struct {
	t   float64
	reg int32
	k   int32
}

// RunELL simulates one randomized insertion stream into an ExaLogLog
// sketch with the given configuration and returns the ML and (if enabled)
// martingale estimates at every checkpoint. Checkpoints must be ascending.
// Distinct counts up to directLimit are simulated with one random hash per
// element; beyond that the waiting-time strategy is used.
func RunELL(cfg core.Config, checkpoints []float64, directLimit float64, seed uint64, martingale bool) []Result {
	s := core.MustNew(cfg)
	if martingale {
		if err := s.EnableMartingale(); err != nil {
			panic(err)
		}
	}
	r := newRNG(seed)
	out := make([]Result, 0, len(checkpoints))

	maxN := checkpoints[len(checkpoints)-1]
	directEnd := math.Min(maxN, directLimit)

	// Phase 1: direct insertion of random hashes.
	ci := 0
	n := 0.0
	for n < directEnd {
		n++
		s.AddHash(r.next())
		for ci < len(checkpoints) && checkpoints[ci] == n {
			out = append(out, snapshot(s, n, martingale))
			ci++
		}
	}
	if ci >= len(checkpoints) {
		return out
	}

	// Phase 2: waiting-time events. For each (register, update value)
	// pair, the next occurrence after n is geometric with success
	// probability ρ_update(k)/m; by memorylessness this is valid whether
	// or not the pair occurred during phase 1 (re-occurrence of an
	// already-recorded pair cannot change the state).
	m := cfg.NumRegisters()
	kmax := int(cfg.MaxUpdateValue())
	events := make([]event, 0, m*kmax)
	for k := 1; k <= kmax; k++ {
		q := rho(cfg, k) / float64(m)
		lq := math.Log1p(-q)
		for i := 0; i < m; i++ {
			// Geometric waiting time ≥ 1: ceil(ln U / ln(1-q)).
			w := math.Ceil(math.Log(r.uniform()) / lq)
			if w < 1 {
				w = 1
			}
			t := n + w
			if t <= maxN {
				events = append(events, event{t: t, reg: int32(i), k: int32(k)})
			}
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].t < events[b].t })

	ei := 0
	for ci < len(checkpoints) {
		cp := checkpoints[ci]
		for ei < len(events) && events[ei].t <= cp {
			s.AddPair(int(events[ei].reg), uint64(events[ei].k))
			ei++
		}
		out = append(out, snapshot(s, cp, martingale))
		ci++
	}
	return out
}

func snapshot(s *core.Sketch, n float64, martingale bool) Result {
	res := Result{N: n, ML: s.EstimateML(), Martingale: math.NaN()}
	if martingale {
		res.Martingale = s.EstimateMartingale()
	}
	return res
}

// rho evaluates ρ_update(k) of equation (10) for the configuration.
func rho(cfg core.Config, k int) float64 {
	phi := cfg.T + 1 + (k-1)>>uint(cfg.T)
	if cap := 64 - cfg.P; phi > cap {
		phi = cap
	}
	return math.Exp2(-float64(phi))
}

// TokenResult is one checkpoint of a token-set simulation (Figure 9).
type TokenResult struct {
	N        float64
	Estimate float64
	Tokens   int
}

// RunTokens simulates direct insertion into a token set with parameter v
// and returns the ML estimate at every checkpoint (all checkpoints must be
// within direct-simulation reach; Figure 9 uses n ≤ 10^5).
func RunTokens(v int, checkpoints []float64, seed uint64) []TokenResult {
	ts, err := core.NewTokenSet(v)
	if err != nil {
		panic(err)
	}
	r := newRNG(seed)
	out := make([]TokenResult, 0, len(checkpoints))
	ci := 0
	n := 0.0
	maxN := checkpoints[len(checkpoints)-1]
	for n < maxN {
		n++
		ts.AddHash(r.next())
		for ci < len(checkpoints) && checkpoints[ci] == n {
			out = append(out, TokenResult{N: n, Estimate: ts.EstimateML(), Tokens: ts.Len()})
			ci++
		}
	}
	return out
}

// ErrorStats aggregates relative estimation errors across runs at one
// checkpoint.
type ErrorStats struct {
	runs  int
	sum   float64
	sumSq float64
}

// Add records one run's estimate for true count n.
func (e *ErrorStats) Add(estimate, n float64) {
	rel := estimate/n - 1
	e.runs++
	e.sum += rel
	e.sumSq += rel * rel
}

// Merge folds another accumulator into e (for parallel aggregation).
func (e *ErrorStats) Merge(other ErrorStats) {
	e.runs += other.runs
	e.sum += other.sum
	e.sumSq += other.sumSq
}

// Bias returns the mean relative error.
func (e *ErrorStats) Bias() float64 {
	if e.runs == 0 {
		return math.NaN()
	}
	return e.sum / float64(e.runs)
}

// RMSE returns the root-mean-square relative error.
func (e *ErrorStats) RMSE() float64 {
	if e.runs == 0 {
		return math.NaN()
	}
	return math.Sqrt(e.sumSq / float64(e.runs))
}
