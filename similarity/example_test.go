package similarity_test

import (
	"fmt"

	"exaloglog"
	"exaloglog/similarity"
)

// Estimate how much two large audiences overlap without storing either.
func ExampleAnalyze() {
	a := exaloglog.New(14)
	b := exaloglog.New(14)
	for u := 0; u < 100000; u++ {
		a.AddUint64(uint64(u))
	}
	for u := 80000; u < 180000; u++ {
		b.AddUint64(uint64(u))
	}
	e, err := similarity.Analyze(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("union within 2%% of 180000: %v\n", e.Union > 176400 && e.Union < 183600)
	fmt.Printf("overlap within 10%% of 20000: %v\n", e.Intersection > 18000 && e.Intersection < 22000)
	// Output:
	// union within 2% of 180000: true
	// overlap within 10% of 20000: true
}
