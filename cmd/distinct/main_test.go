package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"exaloglog/internal/mvp"
)

// TestRunCountsDistinctLines: 10 000 lines holding 1 000 distinct values
// are estimated within 5 standard errors, and -exact reports the truth.
func TestRunCountsDistinctLines(t *testing.T) {
	var in strings.Builder
	for i := range 10000 {
		fmt.Fprintf(&in, "value-%d\n", i*7919%1000)
	}
	for _, tc := range []struct {
		args   []string
		stdErr float64
	}{
		{[]string{"-exact"}, mvp.TheoreticalRMSE(2, 20, 12, false)},
		{[]string{"-exact", "-martingale", "-p", "10"}, mvp.TheoreticalRMSE(2, 16, 10, true)},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, strings.NewReader(in.String()), &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		var est float64
		var lines int
		if _, err := fmt.Sscanf(stdout.String(), "≈ %f distinct lines (of %d total;", &est, &lines); err != nil {
			t.Fatalf("%q: cannot read the estimate from %q: %v", tc.args, stdout.String(), err)
		}
		if !strings.Contains(stdout.String(), "exactly 1000 distinct lines") {
			t.Errorf("%q: no exact count of 1000 in %q", tc.args, stdout.String())
		}
		if lines != 10000 {
			t.Errorf("%q: %d lines counted, want 10000", tc.args, lines)
		}
		if rel := math.Abs(est/1000 - 1); rel > 5*tc.stdErr {
			t.Errorf("%q: estimate %.0f is %.2f %% off, more than 5 standard errors (%.2f %%)", tc.args, est, rel*100, 5*tc.stdErr*100)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-p", "40"}, {"-bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader("a\n"), &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
	}
}
