package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"exaloglog/internal/bitpack"
	"exaloglog/internal/hashing"
)

// Hybrid is a sketch that starts in sparse mode — a sorted set of distinct
// hash tokens, succinctly encoded, with a footprint that grows with the
// tokens — and converts itself, losslessly, to a dense ExaLogLog sketch at
// the break-even point, as proposed in Section 4.3 of the paper. Use it when
// many sketches are kept and most stay almost empty (one per customer/key):
// it is the value the server's store holds under every plain key.
//
// Tokens are taken at the smallest parameter the paper allows, v = p+t, so
// the distinct tokens are exactly the distinct (register, update value)
// pairs seen. A token is a v-bit hash prefix and a zero count (NLZ), and
// the set is kept in one allocation as three bit regions, back to back:
//
//	quotients   the prefixes' high v-l bits in unary (Elias–Fano): token i
//	            sets bit (prefix>>l)+i, which leaves n ones among 2^(v-l)
//	            zeros, one zero closing each quotient's bucket
//	remainders  the prefixes' low l bits, n fields of l bits
//	zero counts each NLZ in unary, that many zeros and a one: the NLZ is
//	            geometric, two bits on average where a fixed field takes six
//
// with l = max(0, v - ⌈log₂ n⌉), a function of n alone, so the n sorted
// prefixes cost l+2 to l+3 bits each instead of v: at the default p = 12
// ELL(2,20) a token takes 11.6 bits at n = 100, 8.0 at 1000 and 4.7 at
// 10 000, where the paper's plain token takes 20. The mode is a pure
// function of the token set: sparse while this encoding is smaller than the
// dense register array (about 30 000 tokens at the default, which some
// 44 000 elements make), dense from then on. Everything observable is the
// same in both modes: Estimate is the dense bias-corrected ML estimate
// (Algorithms 3 and 8) — in sparse mode computed from the registers the
// tokens touch, bit-identical to converting first — and merging in any
// combination of modes gives the registers a dense-only merge would. The
// encoding is canonical and is the serialized form, so equal token sets give
// equal bytes whatever order or route they arrived by.
//
// The zero value is not usable; create instances with NewHybrid, MakeHybrid
// or HybridFromBinary. A Hybrid is not safe for concurrent use.
type Hybrid struct {
	// ptr is the first of the nwords words of encoded tokens while sparse,
	// the *Sketch once dense, nil while empty. Only tokenWords, sketch,
	// setTokenWords and setSketch touch it, and each converts it back only
	// to the type that was stored.
	ptr     unsafe.Pointer
	n       int32  // tokens encoded
	used    uint32 // bits of the token words the encoding takes; every bit past them is zero
	nwords  uint32 // the token array's length in words, its full capacity
	t, d, p uint8  // the dense configuration
	dense   bool   // ptr is a *Sketch
}

// hybridOverhead is the Hybrid struct itself as the allocator rounds it:
// the pointer, three 32-bit counts and four bytes of configuration and mode
// are 24 bytes, a size class of their own.
const hybridOverhead = 24

// tokenWords returns the encoded tokens' array at its full capacity; nil
// while empty and once dense.
func (h *Hybrid) tokenWords() []uint64 {
	if h.dense {
		return nil
	}
	return unsafe.Slice((*uint64)(h.ptr), h.nwords)
}

// sketch returns the dense sketch; nil while sparse.
func (h *Hybrid) sketch() *Sketch {
	if !h.dense {
		return nil
	}
	return (*Sketch)(h.ptr)
}

// setTokenWords makes words, sliced to its full capacity, the token array.
// The caller sets n and used.
func (h *Hybrid) setTokenWords(words []uint64) {
	h.ptr, h.nwords, h.dense = unsafe.Pointer(unsafe.SliceData(words)), uint32(len(words)), false
}

// setSketch makes s the sketch's dense state, in place of any tokens.
func (h *Hybrid) setSketch(s *Sketch) {
	h.ptr, h.nwords, h.n, h.used, h.dense = unsafe.Pointer(s), 0, 0, 0, true
}

// NewHybrid creates an empty sketch that densifies into cfg. It starts
// sparse.
func NewHybrid(cfg Config) (*Hybrid, error) {
	h, err := MakeHybrid(cfg)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// MakeHybrid is NewHybrid by value, for a sketch that lives inside another
// structure and so costs no allocation of its own.
func MakeHybrid(cfg Config) (Hybrid, error) {
	if err := cfg.Validate(); err != nil {
		return Hybrid{}, err
	}
	return emptyHybrid(cfg), nil
}

func emptyHybrid(cfg Config) Hybrid {
	return Hybrid{t: uint8(cfg.T), d: uint8(cfg.D), p: uint8(cfg.P)}
}

func denseHybrid(s *Sketch) Hybrid {
	h := emptyHybrid(s.cfg)
	h.setSketch(s)
	return h
}

// denseFrom returns the dense hybrid the tokens convert to.
func denseFrom(cfg Config, tokens tokenSeq) Hybrid {
	dense := MustNew(cfg)
	dense.addTokens(tokens)
	return denseHybrid(dense)
}

// tokenV is the token parameter v = p+t, the smallest whose tokens convert
// to the dense sketch without loss. The v-bit prefix of a token is the
// register index above the t low bits of the update value, so tokens sort
// by register.
func (c Config) tokenV() int { return c.P + c.T }

// pastBreakEven reports whether a token set that encodes to the given number
// of bits ends the sparse mode: in whole bytes it would be no smaller than
// the dense register array.
func (c Config) pastBreakEven(encoded uint) bool { return (encoded+7)/8 >= uint(c.SizeBytes()) }

// splitToken returns the register and the update value (equation (9)) a
// token stands for: what registerIndex and updateValue give for every hash
// with that token.
func (c Config) splitToken(w uint64) (i int, k uint64) {
	return int(w >> uint(c.T+6)), (w&63)<<uint(c.T) + w>>6&(uint64(1)<<uint(c.T)-1) + 1
}

// tokenLayout places the three regions of n >= 1 encoded tokens.
type tokenLayout struct {
	l   uint // bits of a prefix that go to its remainder
	rem uint // the first bit of the remainders; the quotient vector is bits [0, rem)
	nlz uint // the first bit of the zero counts
}

func layoutTokens(v, n int) tokenLayout {
	l := uint(max(0, v-bits.Len(uint(n-1))))
	rem := uint(n) + 1<<(uint(v)-l)
	return tokenLayout{l, rem, rem + uint(n)*l}
}

// size is the encoded size in bits of n tokens whose NLZs sum to nlzSum.
func (lay tokenLayout) size(n int, nlzSum uint) uint { return lay.nlz + uint(n) + nlzSum }

// tokenSeq is a sorted sequence of n distinct tokens: encoded in the first
// size bits of words at parameter v, or — v = 0, a sorted batch on its way
// in — one to a word.
type tokenSeq struct {
	words []uint64
	n     int
	v     int
	size  uint
}

// tokenStream reads a sequence in order through a buffer it decodes a block
// at a time. Decoding in a tight loop of its own costs a fraction of
// decoding on demand inside a merge, where every step would wait for it.
// Reading an encoded sequence in order needs no search: the next token's
// quotient is the next one bit of the quotient vector less the token's
// index, its remainder the next field, its NLZ the distance to the next one
// bit of the zero counts.
type tokenStream struct {
	i, n  int      // buf[i:n] is decoded and unread
	plain []uint64 // what is left of a sequence that needs no decoding

	words  []uint64 // what is left of an encoded sequence
	left   int      // tokens not decoded yet
	next   uint     // the index of the first of them
	l      uint
	qk, zk uint   // the words of the two bit vectors being read …
	qw, zw uint64 // … with the bits already consumed cleared
	r, z   uint   // the next remainder; the bit after the last NLZ's one
	buf    [64]uint64
}

// endOfTokens is above every token of at most 38 bits: the head of a stream
// that has run out.
const endOfTokens = 1 << 62

// stream returns a reader at the start of the sequence. (A value, not a
// method that fills one in: what a function stores through a pointer
// argument counts as escaping, and a batch on the stack would move to the
// heap.)
func (s tokenSeq) stream() tokenStream {
	if s.v == 0 {
		return tokenStream{plain: s.words[:s.n]}
	}
	if s.n == 0 {
		return tokenStream{}
	}
	lay := layoutTokens(s.v, s.n)
	return tokenStream{
		words: s.words, left: s.n, l: lay.l,
		qw: s.words[0],
		r:  lay.rem, z: lay.nlz,
		zk: lay.nlz >> 6, zw: s.words[lay.nlz>>6] &^ (1<<(lay.nlz&63) - 1),
	}
}

// head returns the next unread token; t.i++ consumes it.
func (t *tokenStream) head() uint64 {
	if t.i == t.n {
		t.refill()
	}
	return t.buf[t.i]
}

func (t *tokenStream) refill() {
	t.i = 0
	if t.n = copy(t.buf[:], t.plain); t.n > 0 {
		t.plain = t.plain[t.n:]
		return
	}
	n := min(len(t.buf), t.left)
	if t.n = n; n == 0 {
		t.buf[0], t.n = endOfTokens, 1
		return
	}
	t.left -= n
	// A loop to a region: each is a few instructions around one running
	// position, which one loop over all three would keep spilling.
	buf, words := t.buf[:n], t.words
	k, w, next := t.qk, t.qw, t.next
	for j := range buf {
		for w == 0 {
			k++
			w = words[k]
		}
		buf[j] = uint64(k<<6 + uint(bits.TrailingZeros64(w)) - next)
		w &= w - 1
		next++
	}
	t.qk, t.qw, t.next = k, w, next
	if l := t.l; l > 0 {
		// The remainders are read off the low end of acc, which holds the
		// `have` bits of their region that come next.
		i, mask := t.r>>6, uint64(1)<<l-1
		acc, have := words[i]>>(t.r&63), 64-t.r&63
		for j := range buf {
			x := acc
			if have < l {
				i++
				acc = words[i]
				x |= acc << (have & 63)
				acc >>= (l - have) & 63
				have += 64
			} else {
				acc >>= l & 63
			}
			have -= l
			buf[j] = buf[j]<<(l&63) | x&mask
		}
		t.r += uint(n) * l
	}
	k, w, z := t.zk, t.zw, t.z
	for j := range buf {
		for w == 0 {
			k++
			w = words[k]
		}
		one := k<<6 + uint(bits.TrailingZeros64(w))
		w &= w - 1
		// An NLZ is at most 64-v; a decoder checking a blob still has to
		// see a longer run as an NLZ, not as prefix bits.
		buf[j] = buf[j]<<6 | uint64(min(one-z, 63))
		z = one + 1
	}
	t.zk, t.zw, t.z = k, w, z
}

// encodeTokens writes the sorted, distinct tokens into words, zeroed and
// large enough, in the given layout, which they fill to the given size.
// Each region is written in order, a word at a time: a bit set in memory
// would have to wait for the one set before it.
func encodeTokens(words, tokens []uint64, lay tokenLayout) {
	k, acc := uint(0), uint64(0)
	for i, x := range tokens {
		q := uint(x>>(lay.l+6)) + uint(i)
		if q>>6 != k {
			words[k] = acc
			k, acc = q>>6, 0
		}
		acc |= 1 << (q & 63)
	}
	if l := lay.l; l > 0 {
		fill, mask := lay.rem&63, uint64(1)<<l-1
		if lay.rem>>6 != k {
			words[k] = acc
			k, acc = lay.rem>>6, 0
		}
		for _, x := range tokens {
			lo := x >> 6 & mask
			acc |= lo << fill
			if fill += l; fill >= 64 {
				words[k] = acc
				k++
				fill -= 64
				acc = lo >> (l - fill)
			}
		}
	}
	z := lay.nlz
	for _, x := range tokens {
		z += uint(x & 63)
		if z>>6 != k {
			words[k] = acc
			k, acc = z>>6, 0
		}
		acc |= 1 << (z & 63)
		z++
	}
	words[k] = acc
}

// tokens is the sketch's token set.
func (h *Hybrid) tokens() tokenSeq {
	return tokenSeq{h.tokenWords(), int(h.n), int(h.p) + int(h.t), uint(h.used)}
}

// newTokenWords returns a zeroed word array with room for an encoding of
// the given size in bits, sliced to its full capacity. Appending to a nil
// slice rounds the capacity up to the allocator's size class, so 8·len() is
// what the heap really holds and none of it is hidden.
func newTokenWords(size uint) []uint64 {
	words := append([]uint64(nil), make([]uint64, (size+63)/64)...)
	return words[:cap(words)]
}

// Config returns the dense-mode configuration.
func (h *Hybrid) Config() Config { return Config{T: int(h.t), D: int(h.d), P: int(h.p)} }

// IsSparse reports whether the sketch is still in sparse (token) mode.
func (h *Hybrid) IsSparse() bool { return !h.dense }

// Tokens returns the number of distinct tokens held (0 once dense).
func (h *Hybrid) Tokens() int { return int(h.n) }

// IsEmpty reports whether nothing has been recorded yet.
func (h *Hybrid) IsEmpty() bool {
	if s := h.sketch(); s != nil {
		return s.IsEmpty()
	}
	return h.n == 0
}

// selectBit returns the position of the k-th (from 0) of the count set bits
// among bits [from, to) of words — with flip = ^0, of the count clear bits —
// counting whole words by popcount from whichever end is nearer.
func selectBit(words []uint64, from, to uint, k, count int, flip uint64) uint {
	if 2*k < count {
		j := from >> 6
		w := (words[j] ^ flip) &^ (1<<(from&63) - 1)
		for c := bits.OnesCount64(w); k >= c; c = bits.OnesCount64(w) {
			k -= c
			j++
			w = words[j] ^ flip
		}
		return j<<6 + select64(w, k)
	}
	k = count - 1 - k // from the top
	j := (to - 1) >> 6
	w := (words[j] ^ flip) & (^uint64(0) >> (63 - (to-1)&63))
	for c := bits.OnesCount64(w); k >= c; c = bits.OnesCount64(w) {
		k -= c
		j--
		w = words[j] ^ flip
	}
	return j<<6 + select64(w, bits.OnesCount64(w)-1-k)
}

// select64 returns the position of the k-th set bit (from 0) of w, which
// has more than k. By halves, without a branch on what the bits are: where
// the low half holds k set bits or fewer, drop it and its count.
func select64(w uint64, k int) (pos uint) {
	for half := uint(32); half > 0; half >>= 1 {
		c := bits.OnesCount64(w & (1<<half - 1))
		skip := uint(int64(c-k-1) >> 63) // all ones if k >= c
		k -= c & int(skip)
		w >>= half & skip
		pos += half & skip
	}
	return pos
}

// bitField returns the width <= 32 bits of words from bit pos on.
func bitField(words []uint64, pos, width uint) uint64 {
	k, shift := pos>>6, pos&63
	return (words[k]>>shift | words[min(k+1, uint(len(words))-1)]<<(64-shift)) & (1<<width - 1)
}

// setBitField overwrites the width < 64 bits of words from bit pos on.
func setBitField(words []uint64, pos, width uint, x uint64) {
	k, shift, mask := pos>>6, pos&63, uint64(1)<<width-1
	words[k] = words[k]&^(mask<<shift) | x<<shift
	if shift+width > 64 {
		words[k+1] = words[k+1]&^(mask>>(64-shift)) | x>>(64-shift)
	}
}

// moveBits moves bits [from, to) of words up by `by` bits. Bits from..from+by
// keep what they held; the caller overwrites them.
func moveBits(words []uint64, from, to, by uint) {
	if from >= to {
		return
	}
	// Word k of the destination takes the 64 bits that lie `by` below it:
	// the low bits of word k-d and, unless by is whole words, the high bits
	// of the word below that. Going down from the top, no word is read after
	// it was written. The first and the last word are written whole and
	// then given back the bits they hold outside the destination.
	lo, hi, d, r := from+by, to+by-1, by>>6, by&63
	kLo, kHi := lo>>6, hi>>6
	first, last := words[kLo], words[kHi]
	if r == 0 {
		copy(words[kLo:kHi+1], words[kLo-d:])
	} else {
		dst := words[kLo : kHi+1]
		src := words[kLo-d:][:len(dst)]
		high := src[len(dst)-1]
		for j := len(dst) - 1; j > 0; j-- {
			low := src[j-1]
			dst[j] = high<<(r&63) | low>>((64-r)&63)
			high = low
		}
		dst[0] = high << r
		if kLo > d {
			dst[0] |= words[kLo-d-1] >> (64 - r)
		}
	}
	above, below := ^(^uint64(0) >> (63 - hi&63)), uint64(1)<<(lo&63)-1
	words[kHi] = words[kHi]&^above | last&above
	words[kLo] = words[kLo]&^below | first&below
}

// zeroRun returns the number of clear bits of words from bit pos up to the
// next set bit: the NLZ whose code starts there.
func zeroRun(words []uint64, pos uint) uint {
	k := pos >> 6
	w := words[k] &^ (1<<(pos&63) - 1)
	for w == 0 {
		k++
		w = words[k]
	}
	return k<<6 + uint(bits.TrailingZeros64(w)) - pos
}

// AddHash inserts an element by its 64-bit hash and reports whether the
// state changed: in sparse mode that a new token was recorded, in dense
// mode that a register changed.
func (h *Hybrid) AddHash(hash uint64) bool {
	if s := h.sketch(); s != nil {
		before := s.changedCount
		s.AddHash(hash)
		return s.changedCount != before
	}
	return h.insertToken(TokenFromHash(hash, h.Config().tokenV()))
}

// insertToken records the token x, one of h's own, and reports whether the
// state changed, as AddHash does for a hash with that token.
func (h *Hybrid) insertToken(x uint64) bool {
	if s := h.sketch(); s != nil {
		return s.addToken(x)
	}
	cfg := h.Config()
	v, n := cfg.tokenV(), int(h.n)
	if n == 0 {
		h.setTokens([]uint64{x})
		return true
	}
	// The token's bucket starts after the zeros that close the buckets
	// below it, and holds one set bit per token. Within it the remainders
	// ascend, and where they are equal the NLZs: the bucket answers whether
	// the token is known and, if not, where it goes — as token i, quotient
	// bit q, NLZ bit z.
	lay, words := layoutTokens(v, n), h.tokenWords()
	prefix, nlz := x>>6, uint(x&63)
	bucket, lo := uint(prefix>>lay.l), prefix&(1<<lay.l-1)
	q := uint(0)
	if bucket > 0 {
		q = selectBit(words, 0, lay.rem, int(bucket)-1, int(lay.rem)-n, ^uint64(0)) + 1
	}
	i := q - bucket
	for ; words[q>>6]>>(q&63)&1 != 0 && bitField(words, lay.rem+i*lay.l, lay.l) < lo; q, i = q+1, i+1 {
	}
	z := lay.nlz
	if i > 0 {
		z = selectBit(words, lay.nlz, uint(h.used), int(i)-1, n, 0) + 1
	}
	for ; words[q>>6]>>(q&63)&1 != 0 && bitField(words, lay.rem+i*lay.l, lay.l) == lo; q, i = q+1, i+1 {
		have := zeroRun(words, z)
		if have == nlz {
			return false
		}
		if have > nlz {
			break
		}
		z += have + 1
	}
	if lay.l > 0 && n&(n-1) == 0 {
		// n was a power of two: the remainders lose a bit and the buckets
		// double, so the set is encoded anew, the token in its place. That
		// happens at most v times in a key's life, the number of tokens
		// doubling in between.
		scratch := tokenScratch.Get().(*[]uint64)
		defer tokenScratch.Put(scratch)
		tokens := scratchTokens(scratch, n+1)
		ts := h.tokens().stream()
		for j := range tokens {
			if uint(j) == i {
				tokens[j] = x
				continue
			}
			tokens[j] = ts.head()
			ts.i++
		}
		h.setTokens(tokens)
		return true
	}
	used := uint(h.used)
	size := used + lay.l + 2 + nlz
	if cfg.pastBreakEven(size) {
		h.densify()
		h.sketch().addToken(x)
		return true
	}
	if size > 64*uint(len(words)) {
		// Grow by one size class: at most one class step (≈ 12 %) of
		// slack, where append's doubling would leave up to half unused.
		grown := newTokenWords(size)
		copy(grown, words)
		words = grown
		h.setTokenWords(words)
	}
	// Make room in the three regions, the highest first: the NLZs from z on
	// move past all the new token adds, the remainders from i on and the
	// NLZs below z past its quotient bit and its remainder, the quotient
	// bits from q on by one.
	r := lay.rem + i*lay.l
	moveBits(words, z, used, lay.l+2+nlz)
	setBitField(words, z+lay.l+1, nlz+1, 1<<nlz)
	moveBits(words, r, z, lay.l+1)
	setBitField(words, r+1, lay.l, lo)
	moveBits(words, q, r, 1)
	words[q>>6] |= 1 << (q & 63)
	h.n, h.used = int32(n+1), uint32(size)
	return true
}

// bulkMin is the batch size from which a sparse sketch takes a sorted batch
// in by one merge. A single insert searches and moves some two thirds of the
// encoding; a merge decodes all of it and writes it anew — a few dozen
// inserts' worth, whatever the set's size.
const bulkMin = 32

// AddHashes inserts a batch of elements by their 64-bit hashes and reports
// whether any of them changed the state (see AddHash). A large batch into a
// sparse sketch is sorted and absorbed in one merge, O(k log k + tokens),
// not O(k · tokens).
func (h *Hybrid) AddHashes(hashes []uint64) bool {
	if h.dense || len(hashes) < bulkMin {
		changed := false
		for _, hash := range hashes {
			changed = h.AddHash(hash) || changed
		}
		return changed
	}
	scratch := tokenScratch.Get().(*[]uint64)
	defer tokenScratch.Put(scratch)
	buf := scratchTokens(scratch, 2*len(hashes))
	return h.absorb(h.Config().sortedTokens(hashes, buf))
}

// sortedTokens returns the distinct tokens of the hashes, ascending, one to
// a word, in buf, which has room for twice as many words as there are
// hashes.
func (c Config) sortedTokens(hashes, buf []uint64) tokenSeq {
	batch, tmp := buf[:len(hashes)], buf[len(hashes):2*len(hashes)]
	v := c.tokenV()
	for i, hash := range hashes {
		batch[i] = TokenFromHash(hash, v)
	}
	batch = sortDistinct(batch, tmp, uint(v+6))
	return tokenSeq{words: batch, n: len(batch)}
}

// MakeBatch returns the token batch of the elements with the given hashes: a
// sketch of configuration cfg that holds exactly their tokens, sorted and
// encoded once. It is what Absorb takes in, and its MarshalBinary bytes are
// what a forwarded write carries. The encoding goes into buf when it fits —
// a batch that does not outlive buf then allocates nothing — and into a new
// array otherwise. A batch past break-even is dense, like any sketch.
func MakeBatch(cfg Config, hashes, buf []uint64) (Hybrid, error) {
	if err := cfg.Validate(); err != nil {
		return Hybrid{}, err
	}
	if len(hashes) == 0 {
		return emptyHybrid(cfg), nil
	}
	scratch := tokenScratch.Get().(*[]uint64)
	defer tokenScratch.Put(scratch)
	tokens := cfg.sortedTokens(hashes, scratchTokens(scratch, 2*len(hashes)))
	return tokensHybrid(cfg, tokens.words[:tokens.n], buf), nil
}

// Absorb folds the token batch b (see MakeBatch) into h and reports whether
// h changed: exactly what adding b's elements one by one with AddHash would
// report, in every combination of modes. An empty h becomes a copy of b, its
// configuration included; otherwise b must have h's configuration. A batch
// below bulkMin tokens goes in by single inserts, so a small batch into a
// large set moves bits in place and never encodes the set anew. b is not
// modified or retained.
func (h *Hybrid) Absorb(b *Hybrid) (bool, error) {
	if h.IsEmpty() {
		*h = b.clone()
		return !b.IsEmpty(), nil
	}
	if h.Config() != b.Config() {
		return false, fmt.Errorf("exaloglog: cannot absorb a batch of config %+v into %+v", b.Config(), h.Config())
	}
	mine, theirs := h.sketch(), b.sketch()
	switch {
	case theirs == nil:
		return h.absorb(b.tokens()), nil
	case mine != nil:
		return mine.mergeRegisters(theirs), nil
	default:
		// A dense batch holds more tokens than a sparse set can, so not all
		// of them are h's: the state changes.
		return true, h.Merge(b)
	}
}

// absorb folds the sorted, distinct tokens b into h and reports whether h
// changed.
func (h *Hybrid) absorb(b tokenSeq) bool {
	if s := h.sketch(); s != nil {
		return s.addTokens(b)
	}
	if b.n >= bulkMin {
		return h.uniteTokens(b)
	}
	changed := false
	ts := b.stream()
	for x := ts.head(); x != endOfTokens; x = ts.head() {
		changed = h.insertToken(x) || changed
		ts.i++
	}
	return changed
}

// radixMin is the token count from which sortDistinct radix-sorts. Below
// it a comparison sort is faster: the radix sort's fixed cost, zeroing and
// summing 16 KB of counters, is that of comparison-sorting some 200 tokens
// (BenchmarkSortDistinct crosses between 192 and 256).
const radixMin = 224

// sortDistinct returns the distinct tokens among the w-bit tokens of a,
// ascending, in a's array or in tmp's (see sortTokens). a is not empty.
func sortDistinct(a, tmp []uint64, w uint) []uint64 {
	if len(a) < radixMin {
		slices.Sort(a)
	} else {
		a = sortTokens(a, tmp, w)
	}
	n := 1
	for _, x := range a[1:] {
		if x != a[n-1] {
			a[n] = x
			n++
		}
	}
	return a[:n]
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
// exactly as Algorithm 2 would have for the original hashes, and reports
// whether a register changed. The tokens must be c's own (v = p+t); they
// sort by register, so each register is read and written once for its
// whole run of tokens.
func (c Config) replayTokens(regs *bitpack.Array, tokens tokenSeq) (changed bool) {
	ts := tokens.stream()
	for x := ts.head(); x != endOfTokens; {
		i, k := c.splitToken(x)
		r, at := regs.Load(i)
		rNew := updateRegister(r, k, c.D)
		for {
			ts.i++
			x = ts.head()
			i2, k2 := c.splitToken(x) // the end of the stream is in no register
			if i2 != i {
				break
			}
			rNew = updateRegister(rNew, k2, c.D)
		}
		if rNew != r {
			regs.Store(at, rNew)
			changed = true
		}
	}
	return changed
}

// addTokens folds a token set into the sketch and reports whether a
// register changed. Like Merge it is a union of streams, so martingale
// tracking is switched off.
func (s *Sketch) addTokens(tokens tokenSeq) bool {
	s.martingale = false
	return s.cfg.replayTokens(s.regs, tokens)
}

// addToken applies the update value of one of the sketch's own tokens, as
// AddHash would for a hash with that token, and reports whether its
// register changed.
func (s *Sketch) addToken(x uint64) bool {
	before := s.changedCount
	s.AddPair(s.cfg.splitToken(x))
	return s.changedCount != before
}

// densify converts the token set to the dense representation.
func (h *Hybrid) densify() { *h = denseFrom(h.Config(), h.tokens()) }

// Densify forces the conversion to dense mode (idempotent) and returns the
// dense sketch, which the hybrid keeps owning.
func (h *Hybrid) Densify() *Sketch {
	if !h.dense {
		h.densify()
	}
	return h.sketch()
}

// ToSketch returns an independent dense sketch with the hybrid's state; the
// hybrid itself stays in its mode.
func (h *Hybrid) ToSketch() *Sketch {
	if s := h.sketch(); s != nil {
		return s.Clone()
	}
	s := MustNew(h.Config())
	s.addTokens(h.tokens())
	return s
}

// Reset returns the sketch to its empty, sparse state.
func (h *Hybrid) Reset() { *h = emptyHybrid(h.Config()) }

// Clone returns a deep copy.
func (h *Hybrid) Clone() *Hybrid {
	c := h.clone()
	return &c
}

// clone is Clone by value: a token array sized to the tokens, however much
// room h's has.
func (h *Hybrid) clone() Hybrid {
	c := emptyHybrid(h.Config())
	if s := h.sketch(); s != nil {
		c.setSketch(s.Clone())
	} else if h.n > 0 {
		words := newTokenWords(uint(h.used))
		copy(words, h.tokenWords())
		c.setTokenWords(words)
		c.n, c.used = h.n, h.used
	}
	return c
}

// estimateTokens is the dense estimate of the sketch the tokens would
// convert to, without converting, at O(tokens), not O(m), and allocating
// nothing.
func (c Config) estimateTokens(tokens tokenSeq) float64 {
	var acc mlAccum
	c.accumulateTokens(&acc, tokens)
	return acc.estimate()
}

// accumulateTokens feeds a the registers of the sketch the tokens would
// convert to. Tokens sort by register, so each run of one register's
// tokens is folded into the value Algorithm 2 would have left there, while
// the untouched registers enter in closed form. The accumulator is exact
// integer arithmetic, so the coefficients are bit-identical to a dense
// scan's.
//
// A run is folded without updateRegister's branches: u is the largest
// update value so far, and bit d-(u-k) of y records update value k. An
// update value k moves u to max(u, k), shifts y by the distance u moved
// and sets bit d-(u-k); a shift of 64 or more, as for k < u-d, where that
// bit position wraps, is zero in Go. Bit d, u's own, is cleared at the
// end. Unlike Algorithm 2 the fold sets no bit for update value 0, which
// no estimator reads.
func (c Config) accumulateTokens(a *mlAccum, tokens tokenSeq) {
	a.cfg = c
	d := uint64(c.D) & 63
	touched := 0
	ts := tokens.stream()
	for x := ts.head(); x != endOfTokens; touched++ {
		i, k := c.splitToken(x)
		u, y := uint64(0), uint64(0)
		for {
			nu := max(u, k)
			y = y>>(nu-u) | 1<<(d+k-nu)
			u = nu
			ts.i++
			x = ts.head()
			var i2 int
			if i2, k = c.splitToken(x); i2 != i { // the end of the stream is in no register
				break
			}
		}
		a.addRegister(u<<d | y&(1<<d-1))
	}
	a.addEmpty(c.NumRegisters() - touched)
}

// Estimate returns the bias-corrected ML distinct-count estimate; the same
// float in either mode for the same token set.
func (h *Hybrid) Estimate() float64 {
	if s := h.sketch(); s != nil {
		return s.EstimateML()
	}
	return h.Config().estimateTokens(h.tokens())
}

// MemoryFootprint returns the heap bytes the sketch holds in its current
// mode: the token array at its real capacity, or the dense sketch, plus the
// Hybrid struct.
func (h *Hybrid) MemoryFootprint() int {
	if s := h.sketch(); s != nil {
		return s.MemoryFootprint() + hybridOverhead
	}
	return 8*int(h.nwords) + hybridOverhead
}

// SizeBytes returns the payload size in the current mode: the encoded
// tokens, or the dense register array.
func (h *Hybrid) SizeBytes() int {
	if s := h.sketch(); s != nil {
		return s.SizeBytes()
	}
	return int(h.used+7) / 8
}

// Merge folds other into h; other is not modified. With equal
// configurations the result is what one sketch fed both streams would hold:
// two token sets unite and stay sparse below break-even, a token set is
// replayed into dense registers, dense registers merge (Algorithm 5).
// Configurations that differ but share t are reduced to common parameters
// first (Section 4.1) and h becomes dense at those; a different t is an
// error and leaves h unchanged.
func (h *Hybrid) Merge(other *Hybrid) error {
	if h.Config() != other.Config() {
		merged, err := MergeCompatible(h.ToSketch(), other.ToSketch())
		if err != nil {
			return err
		}
		*h = denseHybrid(merged)
		return nil
	}
	mine, theirs := h.sketch(), other.sketch()
	switch {
	case mine != nil && theirs != nil:
		return mine.Merge(theirs)
	case mine != nil:
		mine.addTokens(other.tokens())
	case theirs != nil:
		s := theirs.Clone()
		s.addTokens(h.tokens())
		*h = denseHybrid(s)
	default:
		h.uniteTokens(other.tokens())
	}
	return nil
}

// MergeInto folds h into the dense accumulator acc, which must have h's
// configuration: a register merge in dense mode, a token replay in sparse
// mode.
func (h *Hybrid) MergeInto(acc *Sketch) error {
	if h.Config() != acc.cfg {
		return fmt.Errorf("exaloglog: cannot merge config %+v into %+v; reduce to common parameters first", h.Config(), acc.cfg)
	}
	if s := h.sketch(); s != nil {
		return acc.Merge(s)
	}
	acc.addTokens(h.tokens())
	return nil
}

// UnionHybrids returns the union of the sketches, all of configuration cfg,
// in one pass: what folding them together with Merge gives, without encoding
// every intermediate set. The result is dense if a part is, or if the parts'
// tokens, were they all distinct, would pass break-even — each part is then
// replayed into one register array; below that the parts' tokens are sorted
// together and encoded once. The estimate is the same float either way.
func UnionHybrids(cfg Config, parts []*Hybrid) (*Hybrid, error) {
	v, n, nlzSum, dense := cfg.tokenV(), 0, uint(0), false
	for _, h := range parts {
		if h.Config() != cfg {
			return nil, fmt.Errorf("exaloglog: cannot unite config %+v with %+v; reduce to common parameters first", h.Config(), cfg)
		}
		if h.n > 0 {
			n += int(h.n)
			nlzSum += uint(h.used) - layoutTokens(v, int(h.n)).size(int(h.n), 0)
		}
		dense = dense || h.dense
	}
	union := emptyHybrid(cfg)
	switch {
	case dense || n > 0 && cfg.pastBreakEven(layoutTokens(v, n).size(n, nlzSum)):
		acc := MustNew(cfg)
		for _, h := range parts {
			if err := h.MergeInto(acc); err != nil {
				return nil, err // unreachable: configurations checked above
			}
		}
		union = denseHybrid(acc)
	case n > 0:
		scratch := tokenScratch.Get().(*[]uint64)
		defer tokenScratch.Put(scratch)
		buf := scratchTokens(scratch, 2*n)
		all := buf[:0]
		for _, h := range parts {
			ts := h.tokens().stream()
			for x := ts.head(); x != endOfTokens; x = ts.head() {
				all = append(all, x)
				ts.i++
			}
		}
		union.setTokens(sortDistinct(all, buf[n:], uint(v+6)))
	}
	return &union, nil
}

// uniteTokens sets h's tokens to the union with the sequence b, densifying
// at break-even, and reports whether b added anything. The layout of an
// encoding follows from the size of the set, so the union is first merged
// into plain tokens and then encoded. A replica re-sending exactly what h
// holds costs one comparison of the encoded words, and nothing is allocated
// unless b adds a token.
func (h *Hybrid) uniteTokens(b tokenSeq) bool {
	a := h.tokens()
	if a.n == b.n && a.size == b.size && a.v == b.v && slices.Equal(a.words[:(a.size+63)/64], b.words[:(b.size+63)/64]) {
		return false
	}
	scratch := tokenScratch.Get().(*[]uint64)
	defer tokenScratch.Put(scratch)
	union := mergeTokens(a, b, scratch)
	if union == nil {
		return false
	}
	h.setTokens(union)
	return true
}

// setTokens makes the sorted, distinct tokens h's token set: encoded, or
// replayed into registers if that would be no smaller.
func (h *Hybrid) setTokens(tokens []uint64) { *h = tokensHybrid(h.Config(), tokens, nil) }

// tokensHybrid returns the sketch of configuration cfg whose token set is
// the sorted, distinct tokens: encoded — into buf, if the encoding fits —
// or replayed into registers if that would be no smaller. (A result, not a
// receiver it fills in, for the reason sparseHybrid gives.)
func tokensHybrid(cfg Config, tokens, buf []uint64) Hybrid {
	nlzSum := uint(0)
	for _, x := range tokens {
		nlzSum += uint(x & 63)
	}
	lay := layoutTokens(cfg.tokenV(), len(tokens))
	size := lay.size(len(tokens), nlzSum)
	if cfg.pastBreakEven(size) {
		return denseFrom(cfg, tokenSeq{words: tokens, n: len(tokens)})
	}
	words := tokenArray(size, buf)
	encodeTokens(words, tokens, lay)
	return sparseHybrid(cfg, words, len(tokens), size)
}

// tokenArray returns a zeroed word array with room for an encoding of the
// given size in bits: the words of buf it takes, cleared, if it is large
// enough, else a new one.
func tokenArray(size uint, buf []uint64) []uint64 {
	if need := (size + 63) / 64; uint(len(buf)) >= need {
		buf = buf[:need]
		clear(buf)
		return buf
	}
	return newTokenWords(size)
}

// sparseHybrid returns the sketch of configuration cfg whose n tokens are
// encoded in the first size bits of words, not empty. (Set here, not by
// setTokenWords: a store through a pointer, even to a local, counts as
// escaping, and words would move to the heap.)
func sparseHybrid(cfg Config, words []uint64, n int, size uint) Hybrid {
	h := emptyHybrid(cfg)
	h.ptr, h.nwords = unsafe.Pointer(&words[0]), uint32(len(words))
	h.n, h.used = int32(n), uint32(size)
	return h
}

// tokenScratch holds the plain token arrays sets are put together in before
// they are encoded, so that a merge leaves no garbage eight times the size
// of its result.
var tokenScratch = sync.Pool{New: func() any { return new([]uint64) }}

// scratchTokens returns the first n words of *scratch, grown if need be.
func scratchTokens(scratch *[]uint64, n int) []uint64 {
	if cap(*scratch) < n {
		*scratch = make([]uint64, n+n/4)
	}
	return (*scratch)[:n]
}

// mergeTokens returns the union of the sequences a and b, a token to a
// word, in *scratch (which it grows if it has to) or, where b is all there
// is, in b's own array. The union is nil, and scratch not touched, when b
// has no token that a lacks.
func mergeTokens(a, b tokenSeq, scratch *[]uint64) (union []uint64) {
	if a.n == 0 && b.v == 0 && b.n > 0 {
		return b.words[:b.n]
	}
	as, bs := a.stream(), b.stream()
	for n := 0; ; n++ {
		x, y := as.head(), bs.head()
		m := min(x, y)
		if m == endOfTokens {
			if union == nil {
				return nil
			}
			return union[:n]
		}
		if union == nil && y < x {
			// The first token only b has. Up to here the union is a's own
			// first n tokens, read once more.
			union = scratchTokens(scratch, a.n+b.n)
			again := a.stream()
			for i := range union[:n] {
				union[i] = again.head()
				again.i++
			}
		}
		if x == m {
			as.i++
		}
		if y == m {
			bs.i++
		}
		if union != nil {
			union[n] = m
		}
	}
}

// Serialization. A dense hybrid serializes as its sketch does (the raw
// "EL\x01" format of Sketch.MarshalBinary, unchanged). A sparse one is
//
//	bytes 0-3  magic "ELT3" (distinct from "EL\x01", "ELW1", "ELC1")
//	bytes 4-6  t, d, p
//	then       n, the number of tokens, as a uvarint
//	then       the encoding as it lies in memory (see Hybrid), from the
//	           lowest bit of the first byte upward: n + 2^(v-l) quotient
//	           bits, n remainders of l bits, the NLZs in unary
//
// The body is the fewest bytes that hold the encoding, which ends with the
// one bit of the last NLZ, and the bits left over in its last byte are zero.
// Both formats are canonical: one token set, one byte string.
const (
	tokenBlobMagic  = "ELT3"
	tokenBlobHeader = len(tokenBlobMagic) + 3
)

// IsTokenBlob reports whether data starts like a sparse-mode blob.
func IsTokenBlob(data []byte) bool {
	return len(data) >= len(tokenBlobMagic) && string(data[:len(tokenBlobMagic)]) == tokenBlobMagic
}

// MarshalBinary serializes the sketch in its current mode.
func (h *Hybrid) MarshalBinary() ([]byte, error) {
	if s := h.sketch(); s != nil {
		return s.MarshalBinary()
	}
	return h.AppendBinary(make([]byte, 0, tokenBlobHeader+binary.MaxVarintLen32+h.SizeBytes()+7))
}

// AppendBinary appends MarshalBinary's bytes to b.
func (h *Hybrid) AppendBinary(b []byte) ([]byte, error) {
	if s := h.sketch(); s != nil {
		return s.AppendBinary(b)
	}
	b = append(b, tokenBlobMagic...)
	b = append(b, h.t, h.d, h.p)
	b = binary.AppendUvarint(b, uint64(h.n))
	end := len(b) + h.SizeBytes()
	words := h.tokenWords()
	for i := 0; len(b) < end; i++ {
		b = binary.LittleEndian.AppendUint64(b, words[i])
	}
	return b[:end], nil
}

// countOnes returns the number of set bits among bits [from, to) of words.
func countOnes(words []uint64, from, to uint) (n int) {
	for k := from >> 6; k<<6 < to; k++ {
		w := words[k]
		if k == from>>6 {
			w &^= 1<<(from&63) - 1
		}
		if to-k<<6 < 64 {
			w &= 1<<(to&63) - 1
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary (or by
// Sketch.MarshalBinary), replacing the receiver's state. A token blob must
// be canonical — the count in its shortest form, as many ones in either bit
// vector as there are tokens, every quotient within range, tokens strictly
// ascending, each a value TokenFromHash can produce, no spare byte and no
// set bit after the last — or it is rejected; one at or past break-even is
// accepted and densified, so the restored mode is again a function of the
// token set. What is allocated is sized by the blob, not by its count.
func (h *Hybrid) UnmarshalBinary(data []byte) error {
	d, err := DecodeBatch(data, nil)
	if err != nil {
		return err
	}
	*h = d
	return nil
}

// DecodeBatch is UnmarshalBinary for a token batch (see MakeBatch) that
// lives no longer than buf: the blob is checked alike, and its token array
// is decoded into buf when it fits, so that such a batch allocates nothing.
func DecodeBatch(data []byte, buf []uint64) (Hybrid, error) {
	if !IsTokenBlob(data) {
		s, err := FromBinary(data)
		if err != nil {
			return Hybrid{}, err
		}
		return denseHybrid(s), nil
	}
	if len(data) < tokenBlobHeader {
		return Hybrid{}, fmt.Errorf("exaloglog: token blob too short (%d bytes)", len(data))
	}
	cfg := Config{T: int(data[4]), D: int(data[5]), P: int(data[6])}
	if err := cfg.Validate(); err != nil {
		return Hybrid{}, err
	}
	count, k := binary.Uvarint(data[tokenBlobHeader:])
	if k <= 0 || k > 1 && data[tokenBlobHeader+k-1] == 0 {
		return Hybrid{}, fmt.Errorf("exaloglog: token blob has a malformed token count")
	}
	body := data[tokenBlobHeader+k:]
	// A token takes two bits at the least: a count the body cannot hold is
	// refused before anything is computed from it.
	if count > 4*uint64(len(body)) {
		return Hybrid{}, fmt.Errorf("exaloglog: token blob body of %d bytes cannot hold %d tokens", len(body), count)
	}
	if count == 0 {
		if len(body) > 0 {
			return Hybrid{}, fmt.Errorf("exaloglog: empty token blob with a body of %d bytes", len(body))
		}
		return emptyHybrid(cfg), nil
	}
	n, v := int(count), cfg.tokenV()
	lay := layoutTokens(v, n)
	size := 8*uint(len(body)) - uint(bits.LeadingZeros8(body[len(body)-1]))
	if body[len(body)-1] == 0 || size < lay.size(n, 0) {
		return Hybrid{}, fmt.Errorf("exaloglog: token blob body of %d bytes does not end with the last of %d tokens", len(body), n)
	}
	words := tokenArray(size, buf)
	whole := len(body) / 8
	for i := 0; i < whole; i++ {
		words[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	for i, b := range body[8*whole:] {
		words[whole] |= uint64(b) << (8 * uint(i))
	}
	// With n ones in either vector a reader takes n tokens and stays inside
	// both; with the quotient vector's last bit clear, its 2^(v-l) zeros
	// all close a bucket and no quotient lies past them.
	if ones := countOnes(words, 0, lay.rem); ones != n || words[(lay.rem-1)>>6]>>((lay.rem-1)&63)&1 != 0 {
		return Hybrid{}, fmt.Errorf("exaloglog: token blob's quotient vector holds %d tokens, not %d, or one out of range", ones, n)
	}
	if ones := countOnes(words, lay.nlz, size); ones != n {
		return Hybrid{}, fmt.Errorf("exaloglog: token blob holds %d zero counts for %d tokens", ones, n)
	}
	tokens := tokenSeq{words, n, v, size}
	ts := tokens.stream()
	for i, prev := 0, uint64(0); i < n; i, ts.i = i+1, ts.i+1 {
		x := ts.head()
		if x&63 > uint64(64-v) {
			return Hybrid{}, fmt.Errorf("exaloglog: token %#x at index %d has an impossible zero count", x, i)
		}
		if i > 0 && x <= prev {
			return Hybrid{}, fmt.Errorf("exaloglog: tokens not strictly ascending at index %d", i)
		}
		prev = x
	}
	if cfg.pastBreakEven(size) {
		return denseFrom(cfg, tokens), nil
	}
	return sparseHybrid(cfg, words, n, size), nil
}

// HybridFromBinary constructs a hybrid sketch from serialized data.
func HybridFromBinary(data []byte) (*Hybrid, error) {
	h := &Hybrid{}
	if err := h.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return h, nil
}
