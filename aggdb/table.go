// Package aggdb is a small in-memory columnar analytics engine whose
// distinct-count aggregation runs on ExaLogLog sketches.
//
// The paper's introduction motivates ELL with the APPROX_COUNT_DISTINCT
// commands of analytical data stores (Timescale, Redis, Oracle, Snowflake,
// BigQuery, DuckDB, ...). This package reproduces that setting end to end:
// a partitioned columnar table, a GROUP BY ... COUNT(DISTINCT col) query
// that aggregates per partition in parallel and merges the per-group
// sketches — exactly the mergeability use case of Section 1. An exact
// hash-set execution mode provides ground truth for tests and for the
// accuracy experiments.
package aggdb

import (
	"fmt"
)

// Type is a column type.
type Type int

// Supported column types.
const (
	TypeString Type = iota
	TypeInt
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "STRING"
	case TypeInt:
		return "INT"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// columnIndex returns the position of the named column, or an error.
func (s Schema) columnIndex(name string) (int, error) {
	for i, c := range s {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("aggdb: unknown column %q", name)
}

// partition holds a horizontal slice of the table in columnar layout.
type partition struct {
	strs map[int][]string // column index -> values (string columns)
	ints map[int][]int64  // column index -> values (int columns)
	rows int
}

func newPartition(schema Schema) *partition {
	p := &partition{strs: make(map[int][]string), ints: make(map[int][]int64)}
	for i, c := range schema {
		switch c.Type {
		case TypeString:
			p.strs[i] = nil
		case TypeInt:
			p.ints[i] = nil
		}
	}
	return p
}

// Table is a partitioned, append-only columnar table.
//
// Appends are routed round-robin across partitions; queries scan
// partitions in parallel. A Table is safe for concurrent reads but not for
// concurrent Append.
type Table struct {
	schema     Schema
	partitions []*partition
	nextPart   int
}

// NewTable creates an empty table with the given schema, split into
// numPartitions horizontal partitions (>= 1).
func NewTable(schema Schema, numPartitions int) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("aggdb: empty schema")
	}
	seen := make(map[string]bool, len(schema))
	for _, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("aggdb: column with empty name")
		}
		if c.Type != TypeString && c.Type != TypeInt {
			return nil, fmt.Errorf("aggdb: column %q has unsupported type %v", c.Name, c.Type)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("aggdb: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	if numPartitions < 1 {
		return nil, fmt.Errorf("aggdb: need at least 1 partition, got %d", numPartitions)
	}
	t := &Table{schema: schema, partitions: make([]*partition, numPartitions)}
	for i := range t.partitions {
		t.partitions[i] = newPartition(schema)
	}
	return t, nil
}

// Append adds one row. Values must match the schema: string for
// TypeString columns, int64 (or int) for TypeInt columns.
func (t *Table) Append(values ...any) error {
	if len(values) != len(t.schema) {
		return fmt.Errorf("aggdb: got %d values, schema has %d columns", len(values), len(t.schema))
	}
	p := t.partitions[t.nextPart]
	for i, c := range t.schema {
		switch c.Type {
		case TypeString:
			s, ok := values[i].(string)
			if !ok {
				return fmt.Errorf("aggdb: column %q wants string, got %T", c.Name, values[i])
			}
			p.strs[i] = append(p.strs[i], s)
		case TypeInt:
			switch v := values[i].(type) {
			case int64:
				p.ints[i] = append(p.ints[i], v)
			case int:
				p.ints[i] = append(p.ints[i], int64(v))
			default:
				return fmt.Errorf("aggdb: column %q wants int64, got %T", c.Name, values[i])
			}
		}
	}
	p.rows++
	t.nextPart = (t.nextPart + 1) % len(t.partitions)
	return nil
}

// RowView is a cursor positioned on one row during a scan; predicate
// functions receive it to read column values.
type RowView struct {
	part *partition
	row  int
}

// String returns the value of string column index col.
func (r RowView) String(col int) string { return r.part.strs[col][r.row] }
