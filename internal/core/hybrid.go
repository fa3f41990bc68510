package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"exaloglog/internal/bitpack"
	"exaloglog/internal/hashing"
)

// Hybrid is a sketch that starts in sparse mode — a sorted array of
// distinct 32-bit hash tokens (v = 26) with a linearly growing footprint —
// and converts itself, losslessly, to a dense ExaLogLog sketch at the
// break-even point, as proposed in Section 4.3 of the paper. Use it when
// many sketches are kept and most stay almost empty (one per customer/key):
// it is the value the server's store holds under every plain key.
//
// The mode is a pure function of the token set: sparse while 4 bytes per
// token stay below the dense register array (3584 tokens for the default
// p = 12 ELL(2,20)), dense from then on. Everything observable is the same
// in both modes: Estimate is the dense bias-corrected ML estimate
// (Algorithms 3 and 8) — in sparse mode computed from the registers the
// tokens touch, bit-identical to converting first — and merging in any
// combination of modes gives the registers a dense-only merge would.
// Serialization is canonical (tokens ascending), so equal token sets give
// equal bytes whatever order or route they arrived by.
//
// The zero value is not usable; create instances with NewHybrid or
// HybridFromBinary. A Hybrid is not safe for concurrent use.
type Hybrid struct {
	cfg    Config
	tokens []uint32 // sorted, distinct; nil once dense
	dense  *Sketch  // non-nil once converted
}

// DefaultTokenV is the sparse-token parameter: 32-bit tokens, compatible
// with every configuration up to p+t = 26.
const DefaultTokenV = Token32V

// hybridOverhead is the Hybrid struct itself as the allocator rounds it.
const hybridOverhead = 64

// NewHybrid creates an empty sketch that densifies into cfg. It starts
// sparse; a configuration 32-bit tokens cannot feed (p+t > 26) has no
// sparse mode and starts dense.
func NewHybrid(cfg Config) (*Hybrid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hybrid{cfg: cfg}
	if cfg.breakEven() == 0 {
		h.dense = MustNew(cfg)
	}
	return h, nil
}

// breakEven is the token count at which the sparse mode ends: the first at
// which 4 bytes per token reach the dense register array's size. 0 when
// tokens cannot feed the configuration at all.
func (c Config) breakEven() int {
	if c.P+c.T > Token32V {
		return 0
	}
	return (c.SizeBytes() + 3) / 4
}

// Config returns the dense-mode configuration.
func (h *Hybrid) Config() Config { return h.cfg }

// IsSparse reports whether the sketch is still in sparse (token) mode.
func (h *Hybrid) IsSparse() bool { return h.dense == nil }

// Tokens returns the number of distinct tokens held (0 once dense).
func (h *Hybrid) Tokens() int { return len(h.tokens) }

// IsEmpty reports whether nothing has been recorded yet.
func (h *Hybrid) IsEmpty() bool {
	if h.dense != nil {
		return h.dense.IsEmpty()
	}
	return len(h.tokens) == 0
}

// tokenBuf returns an empty token array with room for at least n tokens.
// Appending to a nil slice rounds the capacity up to the allocator's size
// class, so cap()·4 is what the heap really holds and none of it is hidden.
func tokenBuf(n int) []uint32 {
	return append([]uint32(nil), make([]uint32, n)...)[:0]
}

// AddHash inserts an element by its 64-bit hash and reports whether the
// state changed: in sparse mode that a new token was recorded, in dense
// mode that a register changed.
func (h *Hybrid) AddHash(hash uint64) bool {
	if h.dense != nil {
		before := h.dense.changedCount
		h.dense.AddHash(hash)
		return h.dense.changedCount != before
	}
	w := uint32(TokenFromHash(hash, Token32V))
	i, found := slices.BinarySearch(h.tokens, w)
	if found {
		return false
	}
	if len(h.tokens) == cap(h.tokens) {
		// Grow by one size class: at most one class step (≈ 12 %) of
		// slack, where append's doubling would leave up to half unused.
		h.tokens = append(tokenBuf(len(h.tokens)+1), h.tokens...)
	}
	h.tokens = slices.Insert(h.tokens, i, w)
	if len(h.tokens) >= h.cfg.breakEven() {
		h.densify()
	}
	return true
}

// bulkMin is the batch size from which AddHashes sorts the batch and merges
// it in one pass. A single insert moves half the token array on average;
// one merge pass reads all of it twice — about two dozen inserts' worth,
// whatever the array's length.
const bulkMin = 32

// AddHashes inserts a batch of elements by their 64-bit hashes and reports
// whether any of them changed the state (see AddHash). A large batch into a
// sparse sketch costs O(k log k + tokens), not O(k · tokens).
func (h *Hybrid) AddHashes(hashes []uint64) bool {
	if h.dense != nil || len(hashes) < bulkMin {
		changed := false
		for _, hash := range hashes {
			changed = h.AddHash(hash) || changed
		}
		return changed
	}
	buf := make([]uint32, 2*len(hashes))
	batch, other := buf[:len(hashes)], buf[len(hashes):]
	for i, hash := range hashes {
		batch[i] = uint32(TokenFromHash(hash, Token32V))
	}
	sortTokens(batch, other)
	return h.uniteTokens(slices.Compact(batch))
}

// sortTokens sorts a ascending by LSD radix sort, four stable byte-wise
// passes between a and tmp (of equal length) that end in a. Tokens are hash
// bits, the case a comparison sort is worst at and a radix sort indifferent
// to; on a bulk load this is the larger part of the work.
func sortTokens(a, tmp []uint32) {
	var count [4][256]int
	for _, w := range a {
		count[0][byte(w)]++
		count[1][byte(w>>8)]++
		count[2][byte(w>>16)]++
		count[3][byte(w>>24)]++
	}
	for pass := range count {
		c, shift, next := &count[pass], 8*uint(pass), 0
		for d, n := range c {
			c[d], next = next, next+n
		}
		for _, w := range a {
			d := byte(w >> shift)
			tmp[c[d]] = w
			c[d]++
		}
		a, tmp = tmp, a
	}
}

// AddString inserts a string element; see AddHash.
func (h *Hybrid) AddString(element string) bool { return h.AddHash(hashing.WyString(element, 0)) }

// replayTokens inserts the hashes the tokens stand for (HashFromToken,
// Section 4.3) into regs, exactly as Algorithm 2 would have inserted the
// original hashes. c must satisfy p+t <= 26.
func (c Config) replayTokens(regs *bitpack.Array, tokens []uint32) {
	for _, w := range tokens {
		hash := HashFromToken(uint64(w), Token32V)
		i := c.registerIndex(hash)
		r := regs.Get(i)
		if rNew := updateRegister(r, c.updateValue(hash), c.D); rNew != r {
			regs.Set(i, rNew)
		}
	}
}

// addTokens folds a token set into the sketch. Like Merge it is a union of
// streams, so martingale tracking is switched off.
func (s *Sketch) addTokens(tokens []uint32) {
	s.martingale = false
	s.cfg.replayTokens(s.regs, tokens)
}

// densify converts the token set to the dense representation.
func (h *Hybrid) densify() {
	h.dense = MustNew(h.cfg)
	h.dense.addTokens(h.tokens)
	h.tokens = nil
}

// Densify forces the conversion to dense mode (idempotent) and returns the
// dense sketch, which the hybrid keeps owning.
func (h *Hybrid) Densify() *Sketch {
	if h.dense == nil {
		h.densify()
	}
	return h.dense
}

// ToSketch returns an independent dense sketch with the hybrid's state; the
// hybrid itself stays in its mode.
func (h *Hybrid) ToSketch() *Sketch {
	if h.dense != nil {
		return h.dense.Clone()
	}
	s := MustNew(h.cfg)
	s.addTokens(h.tokens)
	return s
}

// Clone returns a deep copy.
func (h *Hybrid) Clone() *Hybrid {
	c := &Hybrid{cfg: h.cfg}
	if h.dense != nil {
		c.dense = h.dense.Clone()
	} else {
		c.tokens = append(tokenBuf(len(h.tokens)), h.tokens...)
	}
	return c
}

// scratchRegs pools all-zero register arrays for sparse-mode estimation;
// estimateTokens hands each one back zeroed. A store holds sketches of one
// configuration, so the pooled array almost always fits; one that does not
// is dropped.
var scratchRegs sync.Pool

// estimateTokens is the dense estimate of the sketch the tokens would
// convert to, without converting: the tokens are replayed into a scratch
// register array, then the registers they touched are fed to the
// Algorithm 3 accumulator — and zeroed again — while the untouched ones
// enter in closed form. The accumulator is exact integer arithmetic, so
// the result is bit-identical to ToSketch().Estimate() at O(tokens), not
// O(m), and allocates nothing.
func (c Config) estimateTokens(tokens []uint32) float64 {
	acc := mlAccum{cfg: c}
	m := c.NumRegisters()
	if len(tokens) == 0 {
		acc.addEmpty(m)
		return acc.estimate()
	}
	regs, _ := scratchRegs.Get().(*bitpack.Array)
	if regs == nil || regs.Len() != m || regs.Width() != c.RegisterWidth() {
		regs = bitpack.New(m, c.RegisterWidth())
	}
	c.replayTokens(regs, tokens)
	touched := 0
	for _, w := range tokens {
		// A written register is never 0 (its update value is >= 1), so 0
		// means untouched or already counted.
		i := c.registerIndex(uint64(w) >> 6)
		if r := regs.Get(i); r != 0 {
			acc.addRegister(r)
			regs.Set(i, 0)
			touched++
		}
	}
	scratchRegs.Put(regs)
	acc.addEmpty(m - touched)
	return acc.estimate()
}

// Estimate returns the bias-corrected ML distinct-count estimate; the same
// float in either mode for the same token set.
func (h *Hybrid) Estimate() float64 {
	if h.dense != nil {
		return h.dense.EstimateML()
	}
	return h.cfg.estimateTokens(h.tokens)
}

// MemoryFootprint returns the heap bytes the sketch holds in its current
// mode: the token array at its real capacity, or the dense sketch, plus the
// Hybrid struct.
func (h *Hybrid) MemoryFootprint() int {
	if h.dense != nil {
		return h.dense.MemoryFootprint() + hybridOverhead
	}
	return cap(h.tokens)*4 + hybridOverhead
}

// SizeBytes returns the payload size in the current mode: 4 bytes per
// token, or the dense register array.
func (h *Hybrid) SizeBytes() int {
	if h.dense != nil {
		return h.dense.SizeBytes()
	}
	return 4 * len(h.tokens)
}

// Merge folds other into h; other is not modified. With equal
// configurations the result is what one sketch fed both streams would hold:
// two token sets unite and stay sparse below break-even, a token set is
// replayed into dense registers, dense registers merge (Algorithm 5).
// Configurations that differ but share t are reduced to common parameters
// first (Section 4.1) and h becomes dense at those; a different t is an
// error and leaves h unchanged.
func (h *Hybrid) Merge(other *Hybrid) error {
	if h.cfg != other.cfg {
		merged, err := MergeCompatible(h.ToSketch(), other.ToSketch())
		if err != nil {
			return err
		}
		h.cfg, h.tokens, h.dense = merged.cfg, nil, merged
		return nil
	}
	switch {
	case h.dense != nil && other.dense != nil:
		return h.dense.Merge(other.dense)
	case h.dense != nil:
		h.dense.addTokens(other.tokens)
	case other.dense != nil:
		h.dense = other.dense.Clone()
		h.dense.addTokens(h.tokens)
		h.tokens = nil
	default:
		h.uniteTokens(other.tokens)
	}
	return nil
}

// MergeInto folds h into the dense accumulator acc, which must have h's
// configuration: a register merge in dense mode, a token replay in sparse
// mode.
func (h *Hybrid) MergeInto(acc *Sketch) error {
	if h.cfg != acc.cfg {
		return fmt.Errorf("exaloglog: cannot merge config %+v into %+v; reduce to common parameters first", h.cfg, acc.cfg)
	}
	if h.dense != nil {
		return acc.Merge(h.dense)
	}
	acc.addTokens(h.tokens)
	return nil
}

// uniteTokens sets h.tokens to the union with the sorted, distinct list b,
// densifying at break-even, and reports whether b added anything. Nothing
// is allocated when it did not (a replica re-sending what h already holds)
// or the union fits in place.
func (h *Hybrid) uniteTokens(b []uint32) bool {
	a := h.tokens
	n := len(a) + len(b)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n--
			i++
			j++
		}
	}
	if n == len(a) {
		return false
	}
	if n >= h.cfg.breakEven() {
		h.densify()
		h.dense.addTokens(b)
		return true
	}
	dst := a
	if cap(dst) < n {
		dst = tokenBuf(n)
	}
	dst = dst[:n]
	// Merge from the back, so that dst may be a itself.
	i, j := len(a)-1, len(b)-1
	for k := n - 1; j >= 0; k-- {
		switch {
		case i >= 0 && a[i] > b[j]:
			dst[k] = a[i]
			i--
		case i >= 0 && a[i] == b[j]:
			dst[k] = a[i]
			i--
			j--
		default:
			dst[k] = b[j]
			j--
		}
	}
	copy(dst, a[:i+1])
	h.tokens = dst
	return true
}

// Serialization. A dense hybrid serializes as its sketch does (the raw
// "EL\x01" format of Sketch.MarshalBinary, unchanged). A sparse one is
//
//	bytes 0-3  magic "ELT1" (distinct from "EL\x01", "ELW1", "ELC1")
//	bytes 4-6  t, d, p
//	then       the tokens, 4 bytes little-endian each, strictly ascending
//
// with the token count implied by the length. Both are canonical: one
// token set, one byte string.
const (
	tokenBlobMagic  = "ELT1"
	tokenBlobHeader = len(tokenBlobMagic) + 3
)

// IsTokenBlob reports whether data starts like a sparse-mode blob.
func IsTokenBlob(data []byte) bool {
	return len(data) >= len(tokenBlobMagic) && string(data[:len(tokenBlobMagic)]) == tokenBlobMagic
}

// MarshalBinary serializes the sketch in its current mode.
func (h *Hybrid) MarshalBinary() ([]byte, error) {
	if h.dense != nil {
		return h.dense.MarshalBinary()
	}
	out := make([]byte, tokenBlobHeader, tokenBlobHeader+4*len(h.tokens))
	copy(out, tokenBlobMagic)
	out[4], out[5], out[6] = byte(h.cfg.T), byte(h.cfg.D), byte(h.cfg.P)
	for _, w := range h.tokens {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary (or by
// Sketch.MarshalBinary), replacing the receiver's state. A token blob must
// be canonical — tokens strictly ascending, each a value TokenFromHash can
// produce — or it is rejected; one at or past break-even is accepted and
// densified, so the restored mode is again a function of the token set.
func (h *Hybrid) UnmarshalBinary(data []byte) error {
	if !IsTokenBlob(data) {
		s, err := FromBinary(data)
		if err != nil {
			return err
		}
		*h = Hybrid{cfg: s.cfg, dense: s}
		return nil
	}
	if len(data) < tokenBlobHeader {
		return fmt.Errorf("exaloglog: token blob too short (%d bytes)", len(data))
	}
	cfg := Config{T: int(data[4]), D: int(data[5]), P: int(data[6])}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.P+cfg.T > Token32V {
		return fmt.Errorf("exaloglog: 32-bit tokens cannot feed a sketch with p+t=%d > %d", cfg.P+cfg.T, Token32V)
	}
	body := data[tokenBlobHeader:]
	if len(body)%4 != 0 {
		return fmt.Errorf("exaloglog: token blob body is %d bytes, not a multiple of 4", len(body))
	}
	n := Hybrid{cfg: cfg, tokens: tokenBuf(len(body) / 4)[:len(body)/4]}
	for i := range n.tokens {
		w := binary.LittleEndian.Uint32(body[4*i:])
		if w&63 > 64-Token32V {
			return fmt.Errorf("exaloglog: token %#x at index %d has an impossible zero count", w, i)
		}
		if i > 0 && w <= n.tokens[i-1] {
			return fmt.Errorf("exaloglog: tokens not strictly ascending at index %d", i)
		}
		n.tokens[i] = w
	}
	if len(n.tokens) >= cfg.breakEven() {
		n.densify()
	}
	*h = n
	return nil
}

// HybridFromBinary constructs a hybrid sketch from serialized data.
func HybridFromBinary(data []byte) (*Hybrid, error) {
	h := &Hybrid{}
	if err := h.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return h, nil
}
