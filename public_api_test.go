package exaloglog_test

import (
	"fmt"
	"testing"

	"exaloglog"
)

// These tests exercise the newer public surface strictly through the
// exaloglog package, the way a downstream user would.

func TestPublicEstimateWithBounds(t *testing.T) {
	s := exaloglog.New(10)
	for i := 0; i < 50000; i++ {
		s.AddUint64(uint64(i))
	}
	iv, err := s.EstimateWithBounds(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lower < 50000 && 50000 < iv.Upper) {
		t.Errorf("95%% interval [%f, %f] misses the truth", iv.Lower, iv.Upper)
	}
	if iv.Confidence != 0.95 {
		t.Errorf("Confidence = %v", iv.Confidence)
	}
	if s.RelativeStandardError() <= 0 {
		t.Error("RelativeStandardError not positive")
	}
}

// The sparse surface, all of it: NewHybrid for anything stored, merged or
// shipped, NewTokenSet for the paper's Algorithm 7 at a free v, and the two
// token conversions. A name dropped or a signature changed fails to compile.
var (
	_ func(exaloglog.Config) (*exaloglog.Hybrid, error) = exaloglog.NewHybrid
	_ func(int) (*exaloglog.TokenSet, error)            = exaloglog.NewTokenSet
	_ func(uint64, int) uint64                          = exaloglog.TokenFromHash
	_ func(uint64, int) uint64                          = exaloglog.HashFromToken
)

func ExampleSketch_EstimateWithBounds() {
	s := exaloglog.New(12)
	for i := 0; i < 100000; i++ {
		s.AddUint64(uint64(i))
	}
	iv, _ := s.EstimateWithBounds(0.95)
	fmt.Printf("truth inside 95%% interval: %v\n", iv.Lower <= 100000 && 100000 <= iv.Upper)
	// Output:
	// truth inside 95% interval: true
}
