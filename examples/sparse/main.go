// Sparse mode: track millions of mostly-small per-key cardinalities
// without allocating dense register arrays up front (Section 4.3 of the
// paper). A Hybrid keeps a key's distinct hash tokens, succinctly encoded,
// and converts itself — losslessly — to the dense register array at the
// break-even point, where the tokens would take as many bytes as the
// registers; the estimate is the same in both modes.
//
// Run with:
//
//	go run ./examples/sparse
package main

import (
	"fmt"

	"exaloglog"
)

func main() {
	cfg := exaloglog.Config{T: 2, D: 20, P: 10}

	// A per-customer distinct-URL counter: most customers touch a
	// handful of URLs, a few touch millions.
	customers := map[string]int{
		"small-shop": 12,
		"mid-size":   4200,
		"whale":      300000,
	}

	for name, urls := range customers {
		h, err := exaloglog.NewHybrid(cfg)
		if err != nil {
			panic(err)
		}
		for u := 0; u < urls; u++ {
			h.AddString(fmt.Sprintf("%s/url/%d", name, u))
		}

		if h.IsSparse() {
			fmt.Printf("%-12s sparse  %7d bytes  ≈ %9.0f distinct (true %d, %d tokens)\n",
				name, h.SizeBytes(), h.Estimate(), urls, h.Tokens())
		} else {
			fmt.Printf("%-12s dense   %7d bytes  ≈ %9.0f distinct (true %d)\n",
				name, h.SizeBytes(), h.Estimate(), urls)
		}
	}
}
