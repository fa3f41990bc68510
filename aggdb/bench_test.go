package aggdb

import (
	"fmt"
	"testing"
)

// benchTable builds a 200k-row events table with 4 groups.
func benchTable(b *testing.B, parts int) *Table {
	b.Helper()
	tbl, err := NewTable(Schema{
		{Name: "country", Type: TypeString},
		{Name: "user", Type: TypeInt},
	}, parts)
	if err != nil {
		b.Fatal(err)
	}
	countries := []string{"at", "de", "us", "jp"}
	for i := 0; i < 200000; i++ {
		if err := tbl.Append(countries[i%4], int64(i%50000)); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkDistinctQueryApprox measures the full scan+aggregate+merge
// pipeline of the sketch engine at several partition counts.
func BenchmarkDistinctQueryApprox(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			tbl := benchTable(b, parts)
			q := DistinctQuery{GroupBy: []string{"country"}, Of: "user", Precision: 12}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.DistinctCount(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistinctQueryExact is the hash-set baseline: same scan, exact
// per-group sets. Compare allocated bytes/op against the approx engine.
func BenchmarkDistinctQueryExact(b *testing.B) {
	tbl := benchTable(b, 4)
	q := DistinctQuery{GroupBy: []string{"country"}, Of: "user", Exact: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.DistinctCount(q); err != nil {
			b.Fatal(err)
		}
	}
}
