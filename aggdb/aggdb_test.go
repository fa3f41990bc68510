package aggdb

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// eventsSchema is the running example: web events with a country, a day
// number and a user id.
var eventsSchema = Schema{
	{Name: "country", Type: TypeString},
	{Name: "day", Type: TypeInt},
	{Name: "user", Type: TypeInt},
}

// buildEvents appends usersPerCountry distinct users per country, each
// appearing `repeats` times, spread over the given days.
func buildEvents(t *testing.T, parts int, countries []string, usersPerCountry, repeats, days int) *Table {
	t.Helper()
	tbl, err := NewTable(eventsSchema, parts)
	if err != nil {
		t.Fatal(err)
	}
	user := int64(0)
	for _, c := range countries {
		for u := 0; u < usersPerCountry; u++ {
			user++
			for rep := 0; rep < repeats; rep++ {
				day := (u + rep) % days
				if err := tbl.Append(c, day, user); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(Schema{}, 1); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewTable(Schema{{Name: "", Type: TypeInt}}, 1); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewTable(Schema{{Name: "a", Type: Type(9)}}, 1); err == nil {
		t.Error("bad type accepted")
	}
	if _, err := NewTable(Schema{{Name: "a", Type: TypeInt}, {Name: "a", Type: TypeInt}}, 1); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewTable(eventsSchema, 0); err == nil {
		t.Error("zero partitions accepted")
	}
}

func TestAppendValidation(t *testing.T) {
	tbl, _ := NewTable(eventsSchema, 2)
	if err := tbl.Append("us", 1); err == nil {
		t.Error("short row accepted")
	}
	if err := tbl.Append(1, 2, 3); err == nil {
		t.Error("wrong type for string column accepted")
	}
	if err := tbl.Append("us", "monday", int64(3)); err == nil {
		t.Error("wrong type for int column accepted")
	}
	if err := tbl.Append("us", 1, int64(3)); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := tbl.Append("us", int64(1), 3); err != nil {
		t.Errorf("int for int64 rejected: %v", err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tbl.NumRows())
	}
}

func TestExactMatchesTruth(t *testing.T) {
	tbl := buildEvents(t, 4, []string{"at", "de", "us"}, 500, 3, 7)
	results, err := tbl.DistinctCount(DistinctQuery{GroupBy: []string{"country"}, Of: "user", Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d groups, want 3", len(results))
	}
	for _, r := range results {
		if r.Count != 500 {
			t.Errorf("group %v exact count %.0f, want 500", r.Key, r.Count)
		}
		if r.Sketch != nil {
			t.Error("exact mode returned a sketch")
		}
	}
}

func TestApproxCloseToExact(t *testing.T) {
	tbl := buildEvents(t, 4, []string{"at", "de", "us"}, 2000, 2, 7)
	results, err := tbl.DistinctCount(DistinctQuery{GroupBy: []string{"country"}, Of: "user", Precision: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if rel := math.Abs(r.Count-2000) / 2000; rel > 0.05 {
			t.Errorf("group %v approx %.0f, want ≈2000 (err %.1f%%)", r.Key, r.Count, 100*rel)
		}
		if r.Sketch == nil {
			t.Error("approx mode returned no sketch")
		}
	}
}

func TestGlobalAggregate(t *testing.T) {
	tbl := buildEvents(t, 3, []string{"at", "de"}, 1000, 2, 7)
	results, err := tbl.DistinctCount(DistinctQuery{Of: "user", Precision: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("global aggregate returned %d rows", len(results))
	}
	want := 2000.0
	if rel := math.Abs(results[0].Count-want) / want; rel > 0.05 {
		t.Errorf("global distinct %.0f, want ≈%.0f", results[0].Count, want)
	}
}

func TestMultiColumnGroupBy(t *testing.T) {
	tbl := buildEvents(t, 2, []string{"at", "de"}, 50, 4, 2)
	results, err := tbl.DistinctCount(DistinctQuery{
		GroupBy: []string{"country", "day"}, Of: "user", Exact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d groups, want 4 (2 countries x 2 days)", len(results))
	}
	// Each (country, day) group must have a 2-element key and results
	// must be sorted deterministically.
	for _, r := range results {
		if len(r.Key) != 2 {
			t.Fatalf("group key %v, want 2 values", r.Key)
		}
	}
}

// TestWhereFilter runs filtered global aggregates, exact, over 100 users
// per country, each on days 0..4. A filter no row passes leaves the global
// aggregate with no row at all.
func TestWhereFilter(t *testing.T) {
	tbl, err := NewTable(eventsSchema, 4)
	if err != nil {
		t.Fatal(err)
	}
	user := int64(0)
	for _, c := range []string{"at", "de", "us"} {
		for u := 0; u < 100; u++ {
			user++
			for day := 0; day < 5; day++ {
				if err := tbl.Append(c, day, user); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	country, _ := tbl.Schema().columnIndex("country")
	day, _ := tbl.Schema().columnIndex("day")
	usr, _ := tbl.Schema().columnIndex("user")
	for _, c := range []struct {
		name  string
		of    string
		where func(RowView) bool
		want  float64 // 0: no row
	}{
		{"country = at", "user", func(r RowView) bool { return r.String(country) == "at" }, 100},
		{"country != at", "user", func(r RowView) bool { return r.String(country) != "at" }, 200},
		{"user <= 50", "user", func(r RowView) bool { return r.Int(usr) <= 50 }, 50},
		{"day < 0", "user", func(r RowView) bool { return r.Int(day) < 0 }, 0},
		{"day >= 0", "user", func(r RowView) bool { return r.Int(day) >= 0 }, 300},
		{"country = de and user <= 150", "user", func(r RowView) bool { return r.String(country) == "de" && r.Int(usr) <= 150 }, 50},
		{"distinct day where day != 2", "day", func(r RowView) bool { return r.Int(day) != 2 }, 4},
	} {
		results, err := tbl.DistinctCount(DistinctQuery{Of: c.of, Where: c.where, Exact: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case c.want == 0 && len(results) != 0:
			t.Errorf("%s: %d rows, want none", c.name, len(results))
		case c.want != 0 && (len(results) != 1 || results[0].Count != c.want):
			t.Errorf("%s: %v, want one row counting %.0f", c.name, results, c.want)
		}
	}
}

func TestUnknownColumns(t *testing.T) {
	tbl := buildEvents(t, 1, []string{"at"}, 5, 1, 1)
	if _, err := tbl.DistinctCount(DistinctQuery{Of: "nope"}); err == nil {
		t.Error("unknown Of column accepted")
	}
	if _, err := tbl.DistinctCount(DistinctQuery{GroupBy: []string{"nope"}, Of: "user"}); err == nil {
		t.Error("unknown group-by column accepted")
	}
	if _, err := tbl.DistinctCount(DistinctQuery{Of: "user", Precision: 99}); err == nil {
		t.Error("invalid precision accepted")
	}
}

// TestPartitionInvariance: the same data distributed over different
// partition counts must give identical sketch states (merge losslessness).
func TestPartitionInvariance(t *testing.T) {
	counts := make([]float64, 0, 3)
	for _, parts := range []int{1, 3, 8} {
		tbl := buildEvents(t, parts, []string{"at"}, 3000, 2, 7)
		results, err := tbl.DistinctCount(DistinctQuery{Of: "user", Precision: 10})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, results[0].Count)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("estimates differ across partitionings: %v", counts)
	}
}

// TestStringDistinct counts distinct values of a string column.
func TestStringDistinct(t *testing.T) {
	tbl, _ := NewTable(Schema{{Name: "word", Type: TypeString}}, 2)
	words := []string{"a", "b", "c", "a", "b", "a"}
	for _, w := range words {
		_ = tbl.Append(w)
	}
	results, err := tbl.DistinctCount(DistinctQuery{Of: "word", Precision: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[0].Count-3) > 0.5 {
		t.Errorf("distinct words %.2f, want ≈3", results[0].Count)
	}
}

// TestGroupKeyAmbiguity guards the key encoding: groups ("ab","c") and
// ("a","bc") must stay distinct.
func TestGroupKeyAmbiguity(t *testing.T) {
	schema := Schema{
		{Name: "x", Type: TypeString},
		{Name: "y", Type: TypeString},
		{Name: "v", Type: TypeInt},
	}
	tbl, _ := NewTable(schema, 1)
	_ = tbl.Append("ab", "c", int64(1))
	_ = tbl.Append("a", "bc", int64(2))
	results, err := tbl.DistinctCount(DistinctQuery{GroupBy: []string{"x", "y"}, Of: "v", Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d groups, want 2 (key encoding collision)", len(results))
	}
}

func TestRollupBasics(t *testing.T) {
	tbl := buildEvents(t, 4, []string{"at", "de"}, 1000, 2, 7)
	r, err := tbl.MaterializeDistinct([]string{"country"}, "user", 12)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", r.NumGroups())
	}
	for _, c := range []string{"at", "de"} {
		if got := r.Count(c); math.Abs(got-1000)/1000 > 0.05 {
			t.Errorf("rollup count %q = %.0f, want ≈1000", c, got)
		}
	}
	if got := r.Count("xx"); got != 0 {
		t.Errorf("missing group count %g, want 0", got)
	}
	// Users are disjoint across countries: total ≈ 2000.
	if got := r.Total(); math.Abs(got-2000)/2000 > 0.05 {
		t.Errorf("rollup total %.0f, want ≈2000", got)
	}
	if r.SizeBytes() == 0 {
		t.Error("rollup reports zero size")
	}
}

// TestRollupMergeAcrossShards: a rollup built per shard and merged must
// match a rollup over the union table (overlapping users counted once).
func TestRollupMergeAcrossShards(t *testing.T) {
	schema := eventsSchema
	shard1, _ := NewTable(schema, 2)
	shard2, _ := NewTable(schema, 2)
	union, _ := NewTable(schema, 2)
	// Users 0..2999 on shard1, 2000..4999 on shard2 (1000 overlap).
	for u := 0; u < 3000; u++ {
		_ = shard1.Append("at", u%7, int64(u))
		_ = union.Append("at", u%7, int64(u))
	}
	for u := 2000; u < 5000; u++ {
		_ = shard2.Append("at", u%7, int64(u))
		_ = union.Append("at", u%7, int64(u))
	}
	r1, err := shard1.MaterializeDistinct([]string{"country"}, "user", 12)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := shard2.MaterializeDistinct([]string{"country"}, "user", 12)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := union.MaterializeDistinct([]string{"country"}, "user", 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Merge(r2); err != nil {
		t.Fatal(err)
	}
	got, want := r1.Count("at"), ru.Count("at")
	if got != want {
		t.Fatalf("merged rollup %.2f != union rollup %.2f (merge must be lossless)", got, want)
	}
	if rel := math.Abs(got-5000) / 5000; rel > 0.05 {
		t.Errorf("merged estimate %.0f, want ≈5000", got)
	}
}

func TestRollupMergeValidation(t *testing.T) {
	tbl := buildEvents(t, 1, []string{"at"}, 10, 1, 1)
	a, _ := tbl.MaterializeDistinct([]string{"country"}, "user", 10)
	b, _ := tbl.MaterializeDistinct([]string{"day"}, "user", 10)
	if err := a.Merge(b); err == nil {
		t.Error("merging rollups with different group-by accepted")
	}
	c, _ := tbl.MaterializeDistinct([]string{"country"}, "user", 11)
	if err := a.Merge(c); err == nil {
		t.Error("merging rollups with different precision accepted")
	}
	d, _ := tbl.MaterializeDistinct([]string{"country"}, "day", 10)
	if err := a.Merge(d); err == nil {
		t.Error("merging rollups with different Of accepted")
	}
}

func TestRollupResultsSorted(t *testing.T) {
	tbl := buildEvents(t, 2, []string{"de", "at", "us"}, 10, 1, 1)
	r, err := tbl.MaterializeDistinct([]string{"country"}, "user", 10)
	if err != nil {
		t.Fatal(err)
	}
	results := r.Results()
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	var prev string
	for _, g := range results {
		cur := fmt.Sprint(g.Key)
		if cur < prev {
			t.Fatalf("results not sorted: %q after %q", cur, prev)
		}
		prev = cur
	}
}

func TestFormatResults(t *testing.T) {
	tbl := buildEvents(t, 1, []string{"at"}, 5, 1, 1)
	for _, c := range []struct {
		exact  bool
		header string
	}{{true, "country         distinct(user)\n"}, {false, "country         approx_distinct(user)\n"}} {
		results, _ := tbl.DistinctCount(DistinctQuery{GroupBy: []string{"country"}, Of: "user", Exact: c.exact})
		out := FormatResults([]string{"country"}, "user", results)
		if !strings.HasPrefix(out, c.header) || !strings.Contains(out, "at") {
			t.Errorf("Exact %v: FormatResults output malformed, want header %q:\n%s", c.exact, c.header, out)
		}
	}
}
