package aggdb_test

import (
	"fmt"

	"exaloglog/aggdb"
)

// Count the distinct users per country: one sketch per group and
// partition, merged across partitions. The exact counts are 1000 and 2000.
func ExampleTable_DistinctCount() {
	table, err := aggdb.NewTable(aggdb.Schema{
		{Name: "country", Type: aggdb.TypeString},
		{Name: "user", Type: aggdb.TypeInt},
	}, 4)
	if err != nil {
		panic(err)
	}
	for u := 0; u < 3000; u++ {
		country := "at"
		if u >= 1000 {
			country = "de"
		}
		if err := table.Append(country, u); err != nil {
			panic(err)
		}
	}
	q := aggdb.DistinctQuery{GroupBy: []string{"country"}, Of: "user"}
	res, err := table.DistinctCount(q)
	if err != nil {
		panic(err)
	}
	fmt.Print(aggdb.FormatResults(q.GroupBy, q.Of, res))
	// Output:
	// country         approx_distinct(user)
	// at              1001
	// de              2003
}
