package core

// Union is the union of any number of sketches, added one at a time: the
// bytes (Hybrid) and the float (Estimate) of folding them together with
// Hybrid.Merge, without encoding a token set per part or keeping a
// reference to one. Its configuration is its first part's; a part of
// another configuration with the same t reduces both to common parameters
// (Section 4.1), and a different t is an error that leaves the union as it
// was. Like the fold, it stays sparse until its distinct tokens pass
// break-even or a part is dense:
//
//	one part    a copy of its encoded tokens or its registers, estimated
//	            as the part is: nothing is decoded, sorted or encoded anew
//	more parts  their tokens one to a word, appended as they come and
//	            sorted into a distinct set (sortDistinct) whenever they
//	            would pass break-even counted with their repeats
//	dense       one register array: the first dense part's registers or
//	            the tokens replayed, every further part merged in
//
// Several parts' tokens lie in an array of tokenScratch's until the union
// turns dense or is Reset, which gives it back and keeps the rest, so a
// pooled Union allocates nothing once warm. The array grows by doubling,
// or, after Grow, is sized once for the tokens still to come. The zero
// value is a union of no parts and no configuration. A Union is not safe
// for concurrent use.
type Union struct {
	cfg  Config
	mode uint8 // unionEmpty, unionOne, unionTokens or unionDense

	one   Hybrid // unionEmpty, unionOne: the part, its tokens in words
	words []uint64

	// unionTokens: the tokens, in the first n words of *buf, the first
	// sorted of them ascending and distinct; the next n words are
	// sortDistinct's second array.
	buf       *[]uint64
	n, sorted int
	nlzSum    uint
	room      int // the tokens the array is first made for (Grow)

	sketch *Sketch // unionDense
}

const (
	unionEmpty = iota
	unionOne
	unionTokens
	unionDense
)

// Reset empties the union. cfg is the configuration of the union of no
// parts; the first part's replaces it.
func (u *Union) Reset(cfg Config) {
	u.cfg, u.mode, u.one = cfg, unionEmpty, emptyHybrid(cfg)
	u.release()
}

// Grow makes room for n more tokens: a caller that sees every part before
// the first Add passes their tokens' total, and the union's token array,
// if it needs one, is then made once instead of doubling as parts come.
func (u *Union) Grow(n int) { u.room = max(u.room, u.n+n) }

// Add folds h into the union; h is not modified or retained.
func (u *Union) Add(h *Hybrid) error {
	part := h.sketch()
	switch {
	case u.mode == unionEmpty:
		u.cfg, u.mode, u.one = h.Config(), unionOne, emptyHybrid(h.Config())
		if part != nil {
			u.densify(part, tokenSeq{})
		} else if h.n > 0 {
			u.words = append(u.words[:0], h.tokenWords()[:(h.used+63)/64]...)
			u.one = sparseHybrid(u.cfg, u.words, int(h.n), uint(h.used))
		}
	case h.Config() != u.cfg:
		fold := u.Hybrid() // the rare case takes the fold's own way
		if err := fold.Merge(h); err != nil {
			return err
		}
		u.cfg, u.sketch, u.mode = fold.Config(), fold.Densify(), unionDense
		u.release()
	case u.mode == unionDense && part != nil:
		u.sketch.mergeRegisters(part)
	case u.mode == unionDense:
		u.sketch.addTokens(h.tokens())
	case part != nil:
		u.densify(part, u.tokenSeq())
	default:
		if u.mode == unionOne {
			u.appendTokens(u.one.tokens())
			u.sorted, u.mode = u.n, unionTokens
		}
		u.appendTokens(h.tokens())
		if u.pastBreakEven() {
			if u.compact(); u.pastBreakEven() {
				u.densify(nil, u.tokenSeq())
			}
		}
	}
	return nil
}

// Estimate returns the union's bias-corrected ML estimate: the fold's
// Hybrid.Estimate, 0 for no parts.
func (u *Union) Estimate() float64 {
	switch u.mode {
	case unionTokens:
		u.compact()
		return u.cfg.estimateTokens(u.tokenSeq())
	case unionDense:
		return u.sketch.EstimateML()
	}
	return u.one.Estimate()
}

// Hybrid returns a copy of the union: the fold's state, whose bytes are
// the fold's.
func (u *Union) Hybrid() Hybrid {
	switch u.mode {
	case unionTokens:
		if u.compact(); u.n == 0 {
			return emptyHybrid(u.cfg)
		}
		return tokensHybrid(u.cfg, (*u.buf)[:u.n], nil)
	case unionDense:
		return denseHybrid(u.sketch.Clone())
	}
	return u.one.clone()
}

// tokenSeq is the union's tokens while it is sparse.
func (u *Union) tokenSeq() tokenSeq {
	if u.mode == unionTokens {
		return tokenSeq{words: (*u.buf)[:u.n], n: u.n}
	}
	return u.one.tokens()
}

// appendTokens appends the sequence's tokens, a decoded block at a time.
func (u *Union) appendTokens(s tokenSeq) {
	if u.buf == nil {
		u.buf = tokenScratch.Get().(*[]uint64)
	}
	if need := 2 * max(u.n+s.n, u.room); cap(*u.buf) < need { // room for the tokens twice
		grown := make([]uint64, max(need, 2*cap(*u.buf)))
		copy(grown, (*u.buf)[:u.n])
		*u.buf = grown
	}
	tokens := (*u.buf)[:cap(*u.buf)]
	for ts := s.stream(); ts.head() != endOfTokens; ts.i = ts.n {
		u.nlzSum += nlzSum(ts.buf[ts.i:ts.n])
		u.n += copy(tokens[u.n:], ts.buf[ts.i:ts.n])
	}
}

// pastBreakEven reports whether the tokens, were they distinct, would
// encode past break-even.
func (u *Union) pastBreakEven() bool {
	return u.n > 0 && u.cfg.pastBreakEven(layoutTokens(u.cfg.tokenV(), u.n).size(u.n, u.nlzSum))
}

// compact sorts the tokens into their distinct set.
func (u *Union) compact() {
	if u.sorted == u.n {
		return
	}
	all := (*u.buf)[:u.n]
	distinct := sortDistinct(all, (*u.buf)[u.n:2*u.n], uint(u.cfg.tokenV()+6))
	u.n = copy(all, distinct) // sortTokens may leave them in the second array
	u.sorted, u.nlzSum = u.n, nlzSum(distinct)
}

// densify makes the union dense: s's registers, or none for s nil, with
// the tokens replayed into them.
func (u *Union) densify(s *Sketch, tokens tokenSeq) {
	if u.sketch == nil || u.sketch.cfg != u.cfg {
		u.sketch = MustNew(u.cfg)
	}
	if s != nil {
		copy(u.sketch.regs.Bytes(), s.regs.Bytes()) // Bytes shares the array
	} else {
		u.sketch.Reset()
	}
	u.sketch.addTokens(tokens)
	u.mode = unionDense
	u.release()
}

// release gives the token array back to tokenScratch.
func (u *Union) release() {
	if u.buf != nil {
		tokenScratch.Put(u.buf)
	}
	u.buf, u.n, u.sorted, u.nlzSum, u.room = nil, 0, 0, 0, 0
}
