package core

import (
	"bytes"
	"slices"
	"testing"
)

// TestAbsorbReportsWhatAddHashWould: a token batch absorbed into a sketch
// in any mode — empty, sparse or dense; the batch below bulkMin, above it,
// or itself dense; its elements new, known or both — reports a change
// exactly when adding the elements one by one would, and leaves the bytes
// those adds leave.
func TestAbsorbReportsWhatAddHashWould(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 8}
	r := rng(4242)
	fresh := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}
	for name, base := range map[string][]uint64{"empty": nil, "sparse": fresh(200), "dense": fresh(3 * cfg.breakEven())} {
		for _, k := range []int{1, 2, bulkMin - 1, bulkMin, 300, 3 * cfg.breakEven()} {
			for _, kind := range []string{"new", "known", "mixed"} {
				if kind != "new" && base == nil {
					continue
				}
				elements := fresh(k)
				for i := range elements {
					if kind == "known" || kind == "mixed" && i%2 == 0 {
						elements[i] = base[r.Intn(len(base))]
					}
				}
				ref, _ := NewHybrid(cfg)
				addAll(ref, base)
				want := false
				for _, x := range elements {
					want = ref.AddHash(x) || want
				}
				h, _ := NewHybrid(cfg)
				addAll(h, base)
				batch, err := MakeBatch(cfg, elements, nil)
				if err != nil {
					t.Fatal(err)
				}
				batchBytes, _ := batch.MarshalBinary()
				got, err := h.Absorb(&batch)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s key, %d %s elements (batch sparse=%v): Absorb reports %v, AddHash %v", name, k, kind, batch.IsSparse(), got, want)
				}
				hb, _ := h.MarshalBinary()
				rb, _ := ref.MarshalBinary()
				if !bytes.Equal(hb, rb) {
					t.Errorf("%s key, %d %s elements: Absorb leaves other bytes than AddHash", name, k, kind)
				}
				if after, _ := batch.MarshalBinary(); !bytes.Equal(after, batchBytes) {
					t.Errorf("%s key, %d %s elements: Absorb modified the batch", name, k, kind)
				}
			}
		}
	}
}

// TestMakeBatch: a batch holds exactly its elements' tokens, in the
// reference encoding — sparse below break-even, dense past it — whether it
// is encoded into the caller's words or an array of its own, and it leaves
// the hashes as they were.
func TestMakeBatch(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 8}
	r := rng(61)
	var words [16]uint64
	for _, k := range []int{0, 1, 5, bulkMin, 100, 3 * cfg.breakEven()} {
		hashes := make([]uint64, k)
		for i := range hashes {
			hashes[i] = r.Uint64()
		}
		if k > 2 {
			hashes[k-1] = hashes[0] // a repeated element is one token
		}
		kept := slices.Clone(hashes)
		for name, buf := range map[string][]uint64{"own array": nil, "caller's words": words[:]} {
			batch, err := MakeBatch(cfg, hashes, buf)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := batch.MarshalBinary()
			if want := cfg.wantBytes(hashes); !bytes.Equal(got, want) {
				t.Errorf("%d hashes, %s: not the reference encoding", k, name)
			}
			if batch.IsSparse() && batch.Tokens() != len(cfg.tokensOf(hashes)) {
				t.Errorf("%d hashes, %s: %d tokens, want %d", k, name, batch.Tokens(), len(cfg.tokensOf(hashes)))
			}
		}
		if !slices.Equal(hashes, kept) {
			t.Errorf("%d hashes: MakeBatch modified them", k)
		}
	}
	if _, err := MakeBatch(Config{T: 9, D: 20, P: 8}, []uint64{1}, nil); err == nil {
		t.Error("MakeBatch accepted an invalid configuration")
	}
}

// TestAbsorbConfigurations: an empty sketch becomes a copy of the batch,
// configuration and mode included, in an array of its own; a sketch that
// holds something refuses a batch of another configuration and is left as
// it was.
func TestAbsorbConfigurations(t *testing.T) {
	cfg, other := Config{T: 2, D: 20, P: 8}, Config{T: 2, D: 20, P: 10}
	r := rng(62)
	hashes := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}
	var words [16]uint64
	for _, n := range []int{3, 3 * cfg.breakEven()} {
		batch, _ := MakeBatch(other, hashes(n), words[:])
		h, _ := NewHybrid(cfg)
		if changed, err := h.Absorb(&batch); err != nil || !changed {
			t.Fatalf("%d elements into an empty sketch: changed %v, %v", n, changed, err)
		}
		got, _ := h.MarshalBinary()
		want, _ := batch.MarshalBinary()
		if !bytes.Equal(got, want) || h.Config() != other {
			t.Errorf("%d elements: the empty sketch is not a copy of the batch", n)
		}
		if h.IsSparse() && &h.tokenWords()[0] == &words[0] {
			t.Errorf("%d elements: the sketch shares the batch's words", n)
		}
		mine, _ := NewHybrid(cfg)
		mine.AddHash(1)
		before, _ := mine.MarshalBinary()
		if _, err := mine.Absorb(&batch); err == nil {
			t.Errorf("%d elements of p=10 absorbed into a p=8 sketch", n)
		}
		if after, _ := mine.MarshalBinary(); !bytes.Equal(after, before) {
			t.Errorf("%d elements: a refused batch changed the sketch", n)
		}
	}
}

// TestSmallBatchInsertsInPlace: a 2-token batch into a 20 000-token key
// moves bits in the key's own array — it is not encoded anew — and
// allocates nothing while the array has room.
func TestSmallBatchInsertsInPlace(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 12}
	r := rng(20000)
	h, _ := NewHybrid(cfg)
	for h.Tokens() < 20000 {
		more := make([]uint64, 20000-h.Tokens())
		for i := range more {
			more[i] = r.Uint64()
		}
		h.AddHashes(more)
	}
	if !h.IsSparse() {
		t.Fatal("20 000 tokens are past break-even")
	}
	var words [4]uint64
	moved := 0
	allocs := testing.AllocsPerRun(100, func() {
		at := h.ptr
		batch, _ := MakeBatch(cfg, []uint64{r.Uint64(), r.Uint64()}, words[:])
		if _, err := h.Absorb(&batch); err != nil {
			t.Fatal(err)
		}
		if h.ptr != at {
			moved++
		}
	})
	// The array grows by one size class when it is full, once here at the
	// most; an encoding anew would move it every time.
	if moved > 1 {
		t.Errorf("the key's array moved %d times in 101 batches of 2 tokens", moved)
	}
	if !raceEnabled && allocs > 0.05 {
		t.Errorf("a 2-token batch into 20 000 tokens allocates %.2f times", allocs)
	}
}

// TestDecodeBatchIntoBuffer: a blob decodes into the caller's words when
// they suffice, allocating nothing, and into an array of its own when not;
// both are the sketch UnmarshalBinary makes, and what UnmarshalBinary
// refuses DecodeBatch refuses.
func TestDecodeBatchIntoBuffer(t *testing.T) {
	cfg := Config{T: 2, D: 20, P: 8}
	r := rng(63)
	var words [8]uint64
	for _, n := range []int{1, 20, 400, 3 * cfg.breakEven()} {
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = r.Uint64()
		}
		src, _ := MakeBatch(cfg, hashes, nil)
		blob, _ := src.MarshalBinary()
		batch, err := DecodeBatch(blob, words[:])
		if err != nil {
			t.Fatal(err)
		}
		got, _ := batch.MarshalBinary()
		if !bytes.Equal(got, blob) {
			t.Errorf("%d elements: decoded into a buffer, other bytes", n)
		}
		inBuf := batch.IsSparse() && &batch.tokenWords()[0] == &words[0]
		if fits := batch.IsSparse() && (batch.SizeBytes()+7)/8 <= len(words); inBuf != fits {
			t.Errorf("%d elements: decoded into the buffer %v, it fits %v", n, inBuf, fits)
		}
		if !raceEnabled && n == 20 {
			if allocs := testing.AllocsPerRun(20, func() { DecodeBatch(blob, words[:]) }); allocs != 0 {
				t.Errorf("decoding %d elements into a buffer allocates %.0f times", n, allocs)
			}
		}
	}
	for name, bad := range rejectedTokenBlobs() {
		if _, err := DecodeBatch(bad, words[:]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
