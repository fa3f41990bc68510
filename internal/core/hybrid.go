package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"exaloglog/internal/bitpack"
	"exaloglog/internal/hashing"
)

// Hybrid is a sketch that starts in sparse mode — a sorted, bit-packed array
// of distinct hash tokens with a linearly growing footprint — and converts
// itself, losslessly, to a dense ExaLogLog sketch at the break-even point,
// as proposed in Section 4.3 of the paper. Use it when many sketches are
// kept and most stay almost empty (one per customer/key): it is the value
// the server's store holds under every plain key.
//
// Tokens are taken at the smallest parameter the paper allows, v = p+t, so
// a token is p+t+6 bits wide (20 at the default p = 12 ELL(2,20)) and the
// distinct tokens are exactly the distinct (register, update value) pairs
// seen. The mode is a pure function of the token set: sparse while the
// packed tokens stay below the dense register array (5735 tokens at the
// default), dense from then on. Everything observable is the same in both
// modes: Estimate is the dense bias-corrected ML estimate (Algorithms 3 and
// 8) — in sparse mode computed from the registers the tokens touch,
// bit-identical to converting first — and merging in any combination of
// modes gives the registers a dense-only merge would. Serialization is
// canonical (tokens ascending), so equal token sets give equal bytes
// whatever order or route they arrived by.
//
// The zero value is not usable; create instances with NewHybrid or
// HybridFromBinary. A Hybrid is not safe for concurrent use.
type Hybrid struct {
	cfg   Config
	words []uint64 // the packed tokens at their full capacity; nil once dense
	n     int      // tokens held in words
	dense *Sketch  // non-nil once converted
}

// hybridOverhead is the Hybrid struct itself as the allocator rounds it.
const hybridOverhead = 64

// NewHybrid creates an empty sketch that densifies into cfg. It starts
// sparse.
func NewHybrid(cfg Config) (*Hybrid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hybrid{cfg: cfg}, nil
}

// tokenV is the token parameter v = p+t, the smallest whose tokens convert
// to the dense sketch without loss. The v-bit field of a token is the
// register index above the t low bits of the update value, so tokens sort
// by register.
func (c Config) tokenV() int { return c.P + c.T }

// tokenWidth is the token size in bits, v+6: at most 38.
func (c Config) tokenWidth() uint { return uint(c.tokenV() + 6) }

// pastBreakEven reports whether n tokens end the sparse mode: packed, they
// would be no smaller than the dense register array.
func (c Config) pastBreakEven(n int) bool { return n*int(c.tokenWidth()) >= 8*c.SizeBytes() }

// splitToken returns the register and the update value (equation (9)) a
// token stands for: what registerIndex and updateValue give for every hash
// with that token.
func (c Config) splitToken(w uint64) (i int, k uint64) {
	return int(w >> uint(c.T+6)), (w&63)<<uint(c.T) + w>>6&(uint64(1)<<uint(c.T)-1) + 1
}

// tokenSeq is n tokens of w bits each, packed back to back from bit 0 of
// words[0] upward; a plain []uint64 of tokens is the case w = 64. The struct
// is passed by value on every hot path: n and w are 32-bit so that it stays
// within the four words the compiler keeps in registers.
type tokenSeq struct {
	words []uint64
	n     int32
	w     uint32
}

func (s tokenSeq) len() int { return int(s.n) }

// at returns token i. It reads the word the token starts in and the next
// one whether or not the token reaches into it — a token that does not
// picks up only bits the mask drops — so there is no branch for hash bits
// to mispredict.
func (s tokenSeq) at(i int) uint64 {
	if s.w == 64 {
		return s.words[i]
	}
	bit := uint(i) * uint(s.w)
	k, shift := bit>>6, bit&63
	next := min(k+1, uint(len(s.words))-1)
	return (s.words[k]>>shift | s.words[next]<<(64-shift)) & (1<<(s.w&63) - 1)
}

// tokenStream reads a sequence in order through a buffer it decodes a block
// at a time. Decoding in a tight loop of its own costs a fraction of
// decoding on demand inside a merge, where every step would wait for it.
type tokenStream struct {
	seq  tokenSeq
	next int // the first token not decoded yet
	i, n int // buf[i:n] is decoded and unread
	buf  [64]uint64
}

// endOfTokens is above every token of at most 38 bits: the head of a stream
// that has run out.
const endOfTokens = 1 << 62

// head returns the next unread token; t.i++ consumes it.
func (t *tokenStream) head() uint64 {
	if t.i == t.n {
		t.refill()
	}
	return t.buf[t.i]
}

func (t *tokenStream) refill() {
	t.i, t.n = 0, min(len(t.buf), t.seq.len()-t.next)
	for k := range t.buf[:t.n] {
		t.buf[k] = t.seq.at(t.next + k)
	}
	if t.next += t.n; t.n == 0 {
		t.buf[0], t.n = endOfTokens, 1
	}
}

// search returns the position of the first token >= x and whether it is x.
// The tokens must be narrower than 63 bits.
func (s tokenSeq) search(x uint64) (int, bool) {
	lo, n := 0, s.len()
	if n == 0 {
		return 0, false
	}
	// The position is in [lo, lo+n]. y-x wraps to a set top bit exactly
	// when y < x, which turns a step into arithmetic instead of a branch on
	// hash bits. First by quarters: the three probes of a step do not
	// depend on one another, so they overlap where three halving steps
	// would wait for each other. Then by halves.
	for n >= 4 {
		q := n / 4
		below := (s.at(lo+q-1)-x)>>63 + (s.at(lo+2*q-1)-x)>>63 + (s.at(lo+3*q-1)-x)>>63
		lo += q * int(below)
		n -= 3 * q
	}
	for n > 1 {
		half := n / 2
		lo += half & -int((s.at(lo+half-1)-x)>>63)
		n -= half
	}
	y := s.at(lo)
	if y < x {
		return lo + 1, false
	}
	return lo, y == x
}

// tokens is the sketch's token set. Every bit of h.words past it is zero.
func (h *Hybrid) tokens() tokenSeq {
	return tokenSeq{h.words, int32(h.n), uint32(h.cfg.tokenWidth())}
}

// tokenWords returns a zeroed word array with room for at least n tokens of
// w bits, sliced to its full capacity. Appending to a nil slice rounds the
// capacity up to the allocator's size class, so 8·len() is what the heap
// really holds and none of it is hidden.
func tokenWords(n int, w uint) []uint64 {
	words := append([]uint64(nil), make([]uint64, (uint(n)*w+63)/64)...)
	return words[:cap(words)]
}

// Config returns the dense-mode configuration.
func (h *Hybrid) Config() Config { return h.cfg }

// IsSparse reports whether the sketch is still in sparse (token) mode.
func (h *Hybrid) IsSparse() bool { return h.dense == nil }

// Tokens returns the number of distinct tokens held (0 once dense).
func (h *Hybrid) Tokens() int { return h.n }

// IsEmpty reports whether nothing has been recorded yet.
func (h *Hybrid) IsEmpty() bool {
	if h.dense != nil {
		return h.dense.IsEmpty()
	}
	return h.n == 0
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
	x := TokenFromHash(hash, h.cfg.tokenV())
	s, w := h.tokens(), h.cfg.tokenWidth()
	i, found := s.search(x)
	if found {
		return false
	}
	if h.cfg.pastBreakEven(h.n + 1) {
		h.densify()
		h.dense.AddHash(hash)
		return true
	}
	if uint(h.n+1)*w > 64*uint(len(h.words)) {
		// Grow by one size class: at most one class step (≈ 12 %) of
		// slack, where append's doubling would leave up to half unused.
		words := tokenWords(h.n+1, w)
		copy(words, h.words)
		h.words = words
	}
	// Move tokens i.. up by one: every word above the one token i starts
	// in takes its high bits from itself and its low bits from the word
	// below. That carries bits from below token i into the word above it
	// only where the new token is about to be written.
	first, last, shift := uint(i)*w>>6, (uint(i+1)*w-1)>>6, uint(i)*w&63
	tail, up, down := h.words[first:(uint(h.n+1)*w+63)>>6], w&63, (64-w)&63
	for k := len(tail) - 1; k > 0; k-- {
		tail[k] = tail[k]<<up | tail[k-1]>>down
	}
	below := uint64(1)<<shift - 1
	tail[0] = tail[0]&below | x<<shift | tail[0]&^below<<up
	if last > first {
		tail[1] = tail[1]&^(1<<(shift+w-64)-1) | x>>(64-shift)
	}
	h.n++
	return true
}

// bulkMin is the batch size from which AddHashes sorts the batch and merges
// it in one pass. A single insert moves half the token array on average;
// one merge pass decodes and rewrites all of it — about two dozen inserts'
// worth, whatever the array's length.
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
	buf := make([]uint64, 2*len(hashes))
	batch, other := buf[:len(hashes)], buf[len(hashes):]
	v := h.cfg.tokenV()
	for i, hash := range hashes {
		batch[i] = TokenFromHash(hash, v)
	}
	batch = sortTokens(batch, other, h.cfg.tokenWidth())
	n := 1
	for _, x := range batch[1:] {
		if x != batch[n-1] {
			batch[n] = x
			n++
		}
	}
	b := tokenSeq{batch, int32(n), 64}
	switch {
	case h.n > 0:
		return h.uniteTokens(b)
	case h.cfg.pastBreakEven(n): // the first load of a key: nothing to merge with
		h.densify()
		h.dense.addTokens(b)
	default:
		h.words, h.n = packTokens(batch[:n], h.cfg.tokenWidth()), n
	}
	return true
}

// sortTokens sorts w-bit tokens ascending by LSD radix sort — one stable
// pass per 10 bits of w, alternating between a and tmp (of equal length) —
// and returns whichever of the two holds the result. Tokens are hash bits,
// the case a comparison sort is worst at and a radix sort indifferent to; on
// a bulk load this is the larger part of the work.
func sortTokens(a, tmp []uint64, w uint) []uint64 {
	const digit, low = 10, 1<<10 - 1
	var count [4][1 << digit]uint32 // a token is at most 38 bits wide
	for _, x := range a {
		count[0][x&low]++
		count[1][x>>digit&low]++
	}
	if w > 2*digit {
		for _, x := range a {
			count[2][x>>(2*digit)&low]++
			count[3][x>>(3*digit)&low]++
		}
	}
	for pass := 0; digit*uint(pass) < w; pass++ {
		c, shift, next := &count[pass], digit*uint(pass), uint32(0)
		for d, n := range c {
			c[d], next = next, next+n
		}
		for _, x := range a {
			d := x >> shift & low
			tmp[c[d]] = x
			c[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// AddString inserts a string element; see AddHash.
func (h *Hybrid) AddString(element string) bool { return h.AddHash(hashing.WyString(element, 0)) }

// replayTokens applies the update values the tokens stand for to regs,
// exactly as Algorithm 2 would have for the original hashes. The tokens
// must be c's own (v = p+t); they sort by register, so each register is
// read and written once for its whole run of tokens.
func (c Config) replayTokens(regs *bitpack.Array, tokens tokenSeq) {
	for j := 0; j < tokens.len(); {
		i, k := c.splitToken(tokens.at(j))
		r := regs.Get(i)
		rNew := updateRegister(r, k, c.D)
		for j++; j < tokens.len(); j++ {
			i2, k2 := c.splitToken(tokens.at(j))
			if i2 != i {
				break
			}
			rNew = updateRegister(rNew, k2, c.D)
		}
		if rNew != r {
			regs.Set(i, rNew)
		}
	}
}

// addTokens folds a token set into the sketch. Like Merge it is a union of
// streams, so martingale tracking is switched off.
func (s *Sketch) addTokens(tokens tokenSeq) {
	s.martingale = false
	s.cfg.replayTokens(s.regs, tokens)
}

// densify converts the token set to the dense representation.
func (h *Hybrid) densify() {
	h.dense = MustNew(h.cfg)
	h.dense.addTokens(h.tokens())
	h.words, h.n = nil, 0
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
	s.addTokens(h.tokens())
	return s
}

// Clone returns a deep copy.
func (h *Hybrid) Clone() *Hybrid {
	c := &Hybrid{cfg: h.cfg, n: h.n}
	if h.dense != nil {
		c.dense = h.dense.Clone()
	} else if h.n > 0 {
		c.words = tokenWords(h.n, h.cfg.tokenWidth())
		copy(c.words, h.words)
	}
	return c
}

// estimateTokens is the dense estimate of the sketch the tokens would
// convert to, without converting. Tokens sort by register, so each run of
// one register's tokens is folded into the value Algorithm 2 would have
// left there and fed to the Algorithm 3 accumulator, while the untouched
// registers enter in closed form. The accumulator is exact integer
// arithmetic, so the result is bit-identical to ToSketch().Estimate() at
// O(tokens), not O(m), and allocates nothing.
func (c Config) estimateTokens(tokens tokenSeq) float64 {
	acc := mlAccum{cfg: c}
	touched := 0
	for j := 0; j < tokens.len(); touched++ {
		i, k := c.splitToken(tokens.at(j))
		r := updateRegister(0, k, c.D)
		for j++; j < tokens.len(); j++ {
			i2, k2 := c.splitToken(tokens.at(j))
			if i2 != i {
				break
			}
			r = updateRegister(r, k2, c.D)
		}
		acc.addRegister(r)
	}
	acc.addEmpty(c.NumRegisters() - touched)
	return acc.estimate()
}

// Estimate returns the bias-corrected ML distinct-count estimate; the same
// float in either mode for the same token set.
func (h *Hybrid) Estimate() float64 {
	if h.dense != nil {
		return h.dense.EstimateML()
	}
	return h.cfg.estimateTokens(h.tokens())
}

// MemoryFootprint returns the heap bytes the sketch holds in its current
// mode: the token array at its real capacity, or the dense sketch, plus the
// Hybrid struct.
func (h *Hybrid) MemoryFootprint() int {
	if h.dense != nil {
		return h.dense.MemoryFootprint() + hybridOverhead
	}
	return 8*len(h.words) + hybridOverhead
}

// SizeBytes returns the payload size in the current mode: the packed
// tokens, or the dense register array.
func (h *Hybrid) SizeBytes() int {
	if h.dense != nil {
		return h.dense.SizeBytes()
	}
	return int(uint(h.n)*h.cfg.tokenWidth()+7) / 8
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
		*h = Hybrid{cfg: merged.cfg, dense: merged}
		return nil
	}
	switch {
	case h.dense != nil && other.dense != nil:
		return h.dense.Merge(other.dense)
	case h.dense != nil:
		h.dense.addTokens(other.tokens())
	case other.dense != nil:
		tokens := h.tokens()
		*h = Hybrid{cfg: h.cfg, dense: other.dense.Clone()}
		h.dense.addTokens(tokens)
	default:
		h.uniteTokens(other.tokens())
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
	acc.addTokens(h.tokens())
	return nil
}

// uniteTokens sets h's tokens to the union with the sorted, distinct
// sequence b, densifying at break-even, and reports whether b added
// anything. A replica re-sending exactly what h holds costs one comparison
// of the packed words, and nothing is allocated unless b adds a token.
func (h *Hybrid) uniteTokens(b tokenSeq) bool {
	a, w := h.tokens(), h.cfg.tokenWidth()
	if a.n == b.n && a.w == b.w && slices.Equal(a.words[:(uint(a.n)*w+63)/64], b.words[:(uint(b.n)*w+63)/64]) {
		return false
	}
	words, n := mergeTokens(a, b, w)
	if words == nil {
		return false
	}
	h.words, h.n = words, n
	if h.cfg.pastBreakEven(n) {
		h.densify()
		return true
	}
	// Shared tokens leave the array larger than the union needs: move to
	// the size class that fits, as a single insert would have grown it.
	if n < a.len()+b.len() {
		if fit := tokenWords(n, w); len(fit) < len(words) {
			copy(fit, words)
			h.words = fit
		}
	}
	return true
}

// appendToken adds the w-bit token x to a packed array that is being filled
// from the bottom: k words of it are written, and acc holds the fill bits
// of the next one that are settled.
func appendToken(words []uint64, k int, acc uint64, fill uint, x uint64, w uint) (int, uint64, uint) {
	acc |= x << fill
	if fill += w; fill >= 64 {
		words[k] = acc
		k++
		fill -= 64
		acc = x >> (w - fill)
	}
	return k, acc, fill
}

// packTokens returns the sorted, distinct tokens packed at w bits each.
func packTokens(tokens []uint64, w uint) []uint64 {
	words, k, acc, fill := tokenWords(len(tokens), w), 0, uint64(0), uint(0)
	for _, x := range tokens {
		k, acc, fill = appendToken(words, k, acc, fill, x, w)
	}
	if fill > 0 {
		words[k] = acc
	}
	return words
}

// mergeTokens returns the union of the sorted, distinct sequences a and b as
// packed w-bit tokens, and its size. Nothing is allocated, and words is nil,
// when b has no token that a lacks.
func mergeTokens(a, b tokenSeq, w uint) (words []uint64, n int) {
	k, acc, fill := 0, uint64(0), uint(0)
	as, bs := tokenStream{seq: a}, tokenStream{seq: b}
	for ; ; n++ {
		x, y := as.head(), bs.head()
		m := min(x, y)
		if m == endOfTokens {
			break
		}
		if words == nil && y < x {
			// The first token only b has. Up to here the union is a's own
			// first n tokens: they are copied as they lie, and the array
			// is filled word by word from there.
			words = tokenWords(a.len()+b.len(), w)
			k, fill = n*int(w)>>6, uint(n)*w&63
			if copy(words, a.words[:k]); fill > 0 {
				acc = a.words[k] & (1<<fill - 1)
			}
		}
		if x == m {
			as.i++
		}
		if y == m {
			bs.i++
		}
		if words != nil {
			k, acc, fill = appendToken(words, k, acc, fill, m, w)
		}
	}
	if fill > 0 {
		words[k] = acc
	}
	return words, n
}

// Serialization. A dense hybrid serializes as its sketch does (the raw
// "EL\x01" format of Sketch.MarshalBinary, unchanged). A sparse one is
//
//	bytes 0-3  magic "ELT2" (distinct from "EL\x01", "ELW1", "ELC1")
//	bytes 4-6  t, d, p
//	then       the tokens, p+t+6 bits each, strictly ascending, packed back
//	           to back from the lowest bit of the first byte upward
//
// The body is the fewest bytes that hold the tokens and the bits left over
// in its last byte are zero, so its length implies the token count. Both
// formats are canonical: one token set, one byte string.
const (
	tokenBlobMagic  = "ELT2"
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
	size := tokenBlobHeader + h.SizeBytes()
	out := make([]byte, tokenBlobHeader, size+7)
	copy(out, tokenBlobMagic)
	out[4], out[5], out[6] = byte(h.cfg.T), byte(h.cfg.D), byte(h.cfg.P)
	for i := 0; len(out) < size; i++ {
		out = binary.LittleEndian.AppendUint64(out, h.words[i])
	}
	return out[:size], nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary (or by
// Sketch.MarshalBinary), replacing the receiver's state. A token blob must
// be canonical — tokens strictly ascending, each a value TokenFromHash can
// produce, no spare byte and no set bit after the last — or it is rejected;
// one at or past break-even is accepted and densified, so the restored mode
// is again a function of the token set.
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
	body, w := data[tokenBlobHeader:], cfg.tokenWidth()
	n := Hybrid{cfg: cfg, n: int(8 * uint(len(body)) / w)}
	spare := 8*uint(len(body)) - uint(n.n)*w
	if spare >= 8 {
		return fmt.Errorf("exaloglog: token blob body of %d bytes is not a whole number of %d-bit tokens", len(body), w)
	}
	if spare > 0 && body[len(body)-1]>>(8-spare) != 0 {
		return fmt.Errorf("exaloglog: token blob has bits set after its %d tokens", n.n)
	}
	if n.n > 0 {
		n.words = tokenWords(n.n, w)
	}
	whole := len(body) / 8
	for i := 0; i < whole; i++ {
		n.words[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	for i, b := range body[8*whole:] {
		n.words[whole] |= uint64(b) << (8 * uint(i))
	}
	tokens := n.tokens()
	for i, prev := 0, uint64(0); i < n.n; i++ {
		x := tokens.at(i)
		if x&63 > uint64(64-cfg.tokenV()) {
			return fmt.Errorf("exaloglog: token %#x at index %d has an impossible zero count", x, i)
		}
		if i > 0 && x <= prev {
			return fmt.Errorf("exaloglog: tokens not strictly ascending at index %d", i)
		}
		prev = x
	}
	if cfg.pastBreakEven(n.n) {
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
