package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// cells maps the first column of every two-column result row to the
// second.
func cells(out string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(strings.TrimPrefix(line, "ell-sql> ")); len(f) == 2 {
			m[f[0]] = f[1]
		}
	}
	return m
}

// TestRunDemoAnswersAQuery: -demo loads the 4-country table and one query
// on stdin gets one row per country, each estimate within 5 % of the
// country's distinct users (5 000, 10 000, 15 000, 20 000).
func TestRunDemoAnswersAQuery(t *testing.T) {
	query := "SELECT country, APPROX_COUNT_DISTINCT(user) FROM t GROUP BY country\n"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-demo"}, strings.NewReader(query), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "table t: 150000 rows, 8 partitions; schema: country:string day:int user:int\n") {
		t.Fatalf("unexpected banner in\n%s", out)
	}
	got := cells(out)
	for country, truth := range map[string]float64{"at": 5000, "de": 10000, "us": 15000, "jp": 20000} {
		est, err := strconv.ParseFloat(got[country], 64)
		if err != nil || math.Abs(est/truth-1) > 0.05 {
			t.Errorf("country %s: estimate %q, want within 5 %% of %.0f", country, got[country], truth)
		}
	}
}

// TestRunTableFileAndBadQuery: -table loads a TSV file; a query that does
// not parse prints its error and the next one is still answered.
func TestRunTableFileAndBadQuery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.tsv")
	if err := os.WriteFile(path, []byte("page:string\tuser:int\na\t1\na\t2\nb\t1\na\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	queries := "SELECT nonsense\nSELECT page, COUNT(DISTINCT user) FROM t GROUP BY page EXACT\n"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", path}, strings.NewReader(queries), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "ell-sql> error: ") {
		t.Errorf("the bad query printed no error in\n%s", out)
	}
	if got := cells(out); got["a"] != "2" || got["b"] != "1" {
		t.Errorf("want 2 distinct users on page a and 1 on b in\n%s", out)
	}
}

func TestRunUsageAndLoadErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-bogus"}, 2},
		{[]string{"-table", filepath.Join(t.TempDir(), "missing.tsv")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, strings.NewReader(""), &stdout, &stderr); code != tc.code || stderr.Len() == 0 {
			t.Errorf("%q: exit %d, stderr %q; want %d and a reason", tc.args, code, stderr.String(), tc.code)
		}
	}
}
