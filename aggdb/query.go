package aggdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"exaloglog/internal/core"
	"exaloglog/internal/hashing"
)

// DistinctQuery describes SELECT GroupBy..., COUNT(DISTINCT Of) FROM t
// [WHERE Where] GROUP BY GroupBy.
type DistinctQuery struct {
	// GroupBy lists the grouping columns (may be empty for a global
	// aggregate).
	GroupBy []string
	// Of is the column whose distinct values are counted.
	Of string
	// Where optionally filters rows before aggregation.
	Where func(RowView) bool
	// Precision is the sketch precision p (default 12). Higher costs more
	// memory per group, lower is less accurate.
	Precision int
	// Exact switches to exact hash-set execution (ground truth; memory
	// grows linearly with per-group distinct counts).
	Exact bool
}

// GroupResult is one output row of a distinct-count query.
type GroupResult struct {
	// Key holds the group-by column values in GroupBy order (empty for a
	// global aggregate).
	Key []any
	// Count is the (approximate or exact) distinct count.
	Count float64
	// Sketch is the group's merged ELL sketch (nil in exact mode); it can
	// be merged with results from other tables.
	Sketch *core.Sketch
}

// DistinctCount executes a GROUP BY COUNT(DISTINCT) query. Partitions are
// scanned concurrently; the per-partition, per-group sketches are merged
// pairwise afterwards (the mergeability property of Section 1). Results
// are sorted by group key for determinism.
func (t *Table) DistinctCount(q DistinctQuery) ([]GroupResult, error) {
	plan, err := t.plan(q)
	if err != nil {
		return nil, err
	}
	// Scan partitions in parallel.
	partGroups := make([]map[string]*groupAgg, len(t.partitions))
	var wg sync.WaitGroup
	for pi, part := range t.partitions {
		wg.Add(1)
		go func(pi int, part *partition) {
			defer wg.Done()
			partGroups[pi] = plan.scanPartition(part)
		}(pi, part)
	}
	wg.Wait()

	// Merge partition results into the first non-empty map.
	merged := make(map[string]*groupAgg)
	for _, groups := range partGroups {
		for key, agg := range groups {
			if dst, ok := merged[key]; ok {
				if err := dst.merge(agg); err != nil {
					return nil, err
				}
			} else {
				merged[key] = agg
			}
		}
	}

	out := make([]GroupResult, 0, len(merged))
	keys := make([]string, 0, len(merged))
	for key := range merged {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		agg := merged[key]
		res := GroupResult{Key: agg.key}
		if q.Exact {
			res.Count = float64(len(agg.exact))
		} else {
			res.Count = agg.sketch.Estimate()
			res.Sketch = agg.sketch
		}
		out = append(out, res)
	}
	return out, nil
}

// queryPlan is a resolved query: column indices instead of names.
type queryPlan struct {
	table     *Table
	groupCols []int
	ofCol     int
	ofType    Type
	where     func(RowView) bool
	cfg       core.Config
	exact     bool
}

// plan resolves column names and validates the query.
func (t *Table) plan(q DistinctQuery) (*queryPlan, error) {
	p := &queryPlan{table: t, where: q.Where, exact: q.Exact}
	for _, name := range q.GroupBy {
		idx, err := t.schema.columnIndex(name)
		if err != nil {
			return nil, err
		}
		p.groupCols = append(p.groupCols, idx)
	}
	idx, err := t.schema.columnIndex(q.Of)
	if err != nil {
		return nil, err
	}
	p.ofCol = idx
	p.ofType = t.schema[idx].Type
	prec := q.Precision
	if prec == 0 {
		prec = 12
	}
	p.cfg = core.RecommendedML(prec)
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// groupAgg accumulates one group's state.
type groupAgg struct {
	key    []any
	sketch *core.Sketch
	exact  map[uint64]struct{}
}

func (g *groupAgg) merge(other *groupAgg) error {
	if g.exact != nil {
		for h := range other.exact {
			g.exact[h] = struct{}{}
		}
		return nil
	}
	return g.sketch.Merge(other.sketch)
}

// scanPartition filters and aggregates one partition.
func (p *queryPlan) scanPartition(part *partition) map[string]*groupAgg {
	groups := make(map[string]*groupAgg)
	var keyBuf strings.Builder
	for row := 0; row < part.rows; row++ {
		rv := RowView{part: part, row: row}
		if p.where != nil && !p.where(rv) {
			continue
		}
		keyBuf.Reset()
		for _, col := range p.groupCols {
			switch p.table.schema[col].Type {
			case TypeString:
				s := part.strs[col][row]
				keyBuf.WriteString(strconv.Itoa(len(s)))
				keyBuf.WriteByte(':')
				keyBuf.WriteString(s)
			case TypeInt:
				keyBuf.WriteString(strconv.FormatInt(part.ints[col][row], 10))
				keyBuf.WriteByte(';')
			}
		}
		key := keyBuf.String()
		agg, ok := groups[key]
		if !ok {
			agg = &groupAgg{key: p.keyValues(part, row)}
			if p.exact {
				agg.exact = make(map[uint64]struct{})
			} else {
				agg.sketch = core.MustNew(p.cfg)
			}
			groups[key] = agg
		}
		h := p.hashOf(part, row)
		if p.exact {
			agg.exact[h] = struct{}{}
		} else {
			agg.sketch.AddHash(h)
		}
	}
	return groups
}

// hashOf hashes the counted column's value of the given row.
func (p *queryPlan) hashOf(part *partition, row int) uint64 {
	if p.ofType == TypeString {
		return hashing.WyString(part.strs[p.ofCol][row], 0)
	}
	return hashing.Wy64Uint64(uint64(part.ints[p.ofCol][row]), 0)
}

// keyValues materializes the group-by values of a row.
func (p *queryPlan) keyValues(part *partition, row int) []any {
	if len(p.groupCols) == 0 {
		return nil
	}
	vals := make([]any, len(p.groupCols))
	for i, col := range p.groupCols {
		if p.table.schema[col].Type == TypeString {
			vals[i] = part.strs[col][row]
		} else {
			vals[i] = part.ints[col][row]
		}
	}
	return vals
}

// FormatResults renders query results as an aligned text table — the
// "same rows the paper reports" convention used by the cmd/ binaries. The
// count column is headed approx_distinct(<of>) for sketch estimates and
// distinct(<of>) for exact counts, which carry no sketch.
func FormatResults(groupBy []string, of string, results []GroupResult) string {
	var b strings.Builder
	for _, g := range groupBy {
		fmt.Fprintf(&b, "%-16s", g)
	}
	agg := "approx_distinct"
	if len(results) > 0 && results[0].Sketch == nil {
		agg = "distinct"
	}
	fmt.Fprintf(&b, "%s(%s)\n", agg, of)
	for _, r := range results {
		for _, v := range r.Key {
			fmt.Fprintf(&b, "%-16v", v)
		}
		fmt.Fprintf(&b, "%.0f\n", r.Count)
	}
	return b.String()
}
