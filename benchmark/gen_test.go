package main

import (
	"slices"
	"testing"
)

// streamDigest is the digest of the first n operations of both clients'
// serve-write and serve-read streams.
func streamDigest(seed uint64, n int) string {
	d := newDigester()
	plain, win := keyNames("p", 100), keyNames("w", 10)
	for cl := 0; cl < clients; cl++ {
		wg, rg := newWriteGen(seed, cl, plain, win), newReadGen(seed, cl, plain, win)
		for i := 0; i < n; i++ {
			wg.next().digest(d)
			rg.next().digest(d)
		}
	}
	return d.sum()
}

func TestGeneratorsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := streamDigest(1, 2000), streamDigest(1, 2000), streamDigest(2, 2000)
	if a != b {
		t.Errorf("same seed, digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 share digest %s", a)
	}
	if streamDigest(1, 1999) == a {
		t.Error("digest ignores the last operation")
	}
}

func TestStreamsOfOneSeedDoNotOverlap(t *testing.T) {
	seen := map[string]int{}
	for index := 0; index < 50; index++ {
		for _, el := range freshElements(newRNG(9, "read-preload", index), 200) {
			if prev, dup := seen[el]; dup {
				t.Fatalf("element %s in streams %d and %d", el, prev, index)
			}
			seen[el] = index
		}
	}
	if newRNG(9, "a", 0).u64() == newRNG(9, "b", 0).u64() {
		t.Error("purpose does not separate streams")
	}
}

func TestReadMixFollowsTheWeights(t *testing.T) {
	g := newReadGen(3, 0, keyNames("p", 1000), keyNames("w", 50))
	var got [numReadClasses]int
	const n = 100_000
	for i := 0; i < n; i++ {
		op := g.next()
		got[op.class]++
		switch op.class {
		case union8:
			if len(op.keys) != 8 {
				t.Fatalf("union of %d keys", len(op.keys))
			}
			for j, k := range op.keys {
				if slices.Contains(op.keys[:j], k) || k < "p0500" {
					t.Fatalf("union keys %v: repeated or from the written half", op.keys)
				}
			}
		case pfcountCold:
			if op.key >= "p0500" || op.els[0] == "" {
				t.Fatalf("cold op %+v", op)
			}
		case wadd:
			if op.ts < clockBaseMillis || op.ts >= clockBaseMillis+clockSpanMillis {
				t.Fatalf("timestamp %d outside the ring span", op.ts)
			}
		}
	}
	for class, w := range readClassWeights { // dealt from a deck: exact over whole decks
		if got[class] != n/100*w {
			t.Errorf("%s: %d of %d operations, want %d %%", readClassNames[class], got[class], n, w)
		}
	}
}

func TestWriteMixAndZipf(t *testing.T) {
	g := newWriteGen(4, 1, keyNames("p", 1000), keyNames("w", 64))
	const n = 100_000
	window, hottest := 0, 0
	for i := 0; i < n; i++ {
		op := g.next()
		if op.window {
			window++
		} else if op.key == "p0000" {
			hottest++
		}
		if op.els[0] == op.els[1] {
			t.Fatal("elements of one command repeat")
		}
	}
	if window != n/10*2 {
		t.Errorf("%d WADDs in %d commands, want 2 in 10", window, n)
	}
	// zipf s=1.1 over 1000 ranks gives rank 0 1/5.57 = 18 % of the draws.
	if share := float64(hottest) / float64(n-window); share < 0.17 || share > 0.19 {
		t.Errorf("hottest key drew %.3f of PFADDs", share)
	}
}

func TestManyKeysSkew(t *testing.T) {
	var small, medium, large int
	const n = 8000
	for i := 0; i < n; i++ {
		switch c := manyKeysCardinality(i); {
		case c >= 1 && c <= 32:
			small++
		case c >= 33 && c <= 1000:
			medium++
		case c >= 1001 && c <= 10000:
			large++
		default:
			t.Fatalf("key %d has %d elements", i, c)
		}
	}
	if small != n*70/100 || medium != n*25/100 || large != n*5/100 {
		t.Errorf("small %d medium %d large %d", small, medium, large)
	}
}
