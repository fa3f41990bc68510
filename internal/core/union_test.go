package core

import (
	"bytes"
	"testing"
)

// unionConfigs are the configurations the parts of a test union take: the
// union's own, another p and another d with the same t, and another t —
// HLL's, whose registers record a register's largest token alone.
var unionConfigs = [...]Config{{T: 2, D: 20, P: 8}, {T: 2, D: 20, P: 9}, {T: 2, D: 16, P: 8}, {T: 0, D: 0, P: 8}}

// unionSizes are the element counts of a test union's parts: empty, a few,
// around and past break-even at p = 8 (some 2 000 tokens), dense.
var unionSizes = [...]int{0, 3, 40, 200, 600, 1500, 3000, 20000}

// unionCases are the unions TestUnion and FuzzUnion's seeds check, a byte a
// part: the configuration in its low two bits, the size class above them.
// pool is how many distinct elements the parts draw from: a small one makes
// them overlap.
var unionCases = []struct {
	name  string
	parts []byte
	pool  int
}{
	{"no part", nil, 30000},
	{"two empty parts", []byte{0 << 2, 0 << 2}, 30000},
	{"sparse parts", []byte{1 << 2, 0 << 2, 2 << 2, 3 << 2}, 30000},
	{"sparse parts that pass break-even together", []byte{5 << 2, 5 << 2, 5 << 2, 5 << 2}, 30000},
	{"repeats that pass break-even only counted with them", []byte{5 << 2, 5 << 2, 5 << 2, 5 << 2}, 1200},
	{"a dense part among sparse ones", []byte{1 << 2, 7 << 2, 1 << 2}, 30000},
	{"a dense first part", []byte{7 << 2, 3 << 2}, 30000},
	{"one sparse part", []byte{3 << 2}, 30000},
	{"one dense part", []byte{7 << 2}, 30000},
	{"a lone part of another configuration", []byte{1 | 3<<2}, 30000},
	{"that part and a part of the union's", []byte{1 | 3<<2, 3 << 2}, 30000},
	{"parts of another p and another d", []byte{1 | 3<<2, 2 | 7<<2, 3 << 2}, 30000},
	{"a part of another t", []byte{3 << 2, 3 | 3<<2, 2 << 2}, 30000},
	{"one sparse part's elements three times over", []byte{7 << 2, 7 << 2, 7 << 2}, 2000},
	{"HLL parts that pass break-even together", []byte{3 | 3<<2, 3 | 3<<2, 3 | 3<<2}, 30000},
	{"HLL repeats", []byte{3 | 3<<2, 3 | 3<<2, 3 | 3<<2, 3 | 3<<2}, 300},
}

// unionParts returns the parts the bytes describe (see unionCases), their
// elements drawn from a pool of the given size.
func unionParts(shape []byte, pool int, seed int64) []*Hybrid {
	r := rng(seed)
	elements := make([]uint64, pool)
	for i := range elements {
		elements[i] = r.Uint64()
	}
	var parts []*Hybrid
	for _, b := range shape {
		h, _ := NewHybrid(unionConfigs[b&3])
		for range unionSizes[b>>2&7] {
			h.AddHash(elements[r.Intn(len(elements))])
		}
		parts = append(parts, h)
	}
	return parts
}

// checkUnionOrders checks a union of the parts in every order against the
// fold by Merge: the same error at the same part, and the bytes and float
// of the fold up to it. Each union adds copies of the parts and then changes
// them, so a union that kept a reference to a part would show it. u is
// reused, so what one union leaves behind must not show in the next.
func checkUnionOrders(t *testing.T, u *Union, parts []*Hybrid) {
	t.Helper()
	cfg := unionConfigs[0]
	permute(len(parts), func(order []int) {
		var fold *Hybrid
		foldFailed := -1
		for i, j := range order {
			if fold == nil {
				fold = parts[j].Clone()
			} else if err := fold.Merge(parts[j]); err != nil {
				foldFailed = i
				break
			}
		}
		if fold == nil {
			fold, _ = NewHybrid(cfg)
		}
		u.Reset(cfg)
		failed := -1
		var copies []*Hybrid
		for i, j := range order {
			c := parts[j].Clone()
			copies = append(copies, c)
			if err := u.Add(c); err != nil {
				failed = i
				break
			}
		}
		if failed != foldFailed {
			t.Fatalf("order %v: the union failed at part %d, the fold at %d", order, failed, foldFailed)
		}
		for i, c := range copies {
			c.AddHashes([]uint64{uint64(i) + 1, uint64(i) << 40, ^uint64(i)})
		}
		est := u.Estimate()
		h := u.Hybrid()
		got, _ := h.MarshalBinary()
		want, _ := fold.MarshalBinary()
		if !bytes.Equal(got, want) || est != fold.Estimate() || h.Estimate() != est || u.Estimate() != est {
			t.Fatalf("order %v: the union (sparse %v, %d bytes) estimates %v, the fold (sparse %v, %d bytes) %v",
				order, h.IsSparse(), len(got), est, fold.IsSparse(), len(want), fold.Estimate())
		}
	})
}

// permute calls f with every order of 0 … n-1.
func permute(n int, f func([]int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			f(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			walk(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	walk(0)
}

// TestUnion: a union is the fold by Merge in every order — the same bytes
// and the same float, sparse while the distinct tokens stay below
// break-even and no part is dense — a lone part of another configuration
// is itself, a part of another configuration with the same t reduces the
// union, and a part of another t is an error that leaves the union as it
// was.
func TestUnion(t *testing.T) {
	var u Union
	for i, c := range unionCases {
		t.Run(c.name, func(t *testing.T) {
			checkUnionOrders(t, &u, unionParts(c.parts, c.pool, int64(i)))
		})
	}
	// The cases' sparse and dense outcomes are what their names say.
	for _, c := range []struct {
		i      int
		sparse bool
	}{{2, true}, {3, false}, {4, true}, {6, false}, {7, true}, {9, true}, {10, false}, {13, true}, {14, false}, {15, true}} {
		u.Reset(unionConfigs[0])
		for _, h := range unionParts(unionCases[c.i].parts, unionCases[c.i].pool, int64(c.i)) {
			u.Add(h)
		}
		if h := u.Hybrid(); h.IsSparse() != c.sparse {
			t.Errorf("%s: the union is sparse=%v", unionCases[c.i].name, h.IsSparse())
		}
	}
}

// TestUnionAllocations: a warm union of sparse or dense parts allocates
// nothing to add them and estimate.
func TestUnionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, shape := range [][]byte{{3 << 2, 3 << 2, 2 << 2}, {7 << 2, 7 << 2, 3 << 2}, {5 << 2, 5 << 2, 5 << 2, 5 << 2}} {
		parts := unionParts(shape, 30000, 1)
		var u Union
		n := testing.AllocsPerRun(20, func() {
			u.Reset(unionConfigs[0])
			for _, h := range parts {
				u.Add(h)
			}
			u.Estimate()
		})
		if n != 0 {
			t.Errorf("parts %v: %.0f allocations a union, want 0", shape, n)
		}
	}
}

// FuzzUnion: a union of up to four parts, each of a configuration and a
// size the fuzzer picks (a byte a part, see unionCases), is the fold by
// Merge in every order.
func FuzzUnion(f *testing.F) {
	for i, c := range unionCases {
		f.Add(c.parts, uint16(c.pool), int64(i))
	}
	var u Union
	f.Fuzz(func(t *testing.T, shape []byte, pool uint16, seed int64) {
		if len(shape) > 4 {
			shape = shape[:4]
		}
		checkUnionOrders(t, &u, unionParts(shape, 1+int(pool), seed))
	})
}
