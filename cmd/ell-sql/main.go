// Command ell-sql is an interactive shell for the aggdb distinct-count
// engine: it loads a TSV file into a partitioned columnar table and
// answers SELECT ... COUNT(DISTINCT ...) queries on ExaLogLog sketches.
//
// Usage:
//
//	ell-sql -table events.tsv            # first line: name:type headers
//	ell-sql -demo                        # built-in demo table
//
// The TSV header declares the schema, e.g. "country:string\tday:int\tuser:int".
// Queries are read line by line from stdin:
//
//	SELECT country, APPROX_COUNT_DISTINCT(user) FROM t WHERE day < 5 GROUP BY country
//
// Append EXACT to a query to run the exact hash-set engine instead.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"exaloglog/aggdb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main without the process: it parses args (everything after the
// program name), loads the table, answers the queries on stdin until it
// ends and returns the exit code — 0 ok, 1 the table could not be loaded,
// 2 usage. A query that fails prints its error and the shell goes on.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ell-sql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tablePath := fs.String("table", "", "TSV file with name:type header (string|int)")
	demo := fs.Bool("demo", false, "load a built-in demo table instead of a file")
	precision := fs.Int("p", 12, "sketch precision for approximate queries")
	parts := fs.Int("partitions", 8, "number of table partitions")
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has reported the error and the flag list
	}

	var (
		table *aggdb.Table
		err   error
	)
	switch {
	case *demo:
		table, err = demoTable(*parts)
	case *tablePath != "":
		table, err = loadTSV(*tablePath, *parts)
	default:
		fmt.Fprintln(stderr, "need -table <file.tsv> or -demo")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "table t: %d rows, %d partitions; schema:", table.NumRows(), table.NumPartitions())
	for _, c := range table.Schema() {
		fmt.Fprintf(stdout, " %s:%s", c.Name, strings.ToLower(c.Type.String()))
	}
	fmt.Fprintln(stdout, "\nenter queries (FROM t), ctrl-d to exit")

	in := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "ell-sql> ")
		if !in.Scan() {
			fmt.Fprintln(stdout)
			return 0
		}
		query := strings.TrimSpace(in.Text())
		if query == "" {
			continue
		}
		res, err := table.ExecuteSQL("t", query, *precision)
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			continue
		}
		fmt.Fprint(stdout, res.Format())
	}
}

// demoTable builds the web-events table used across the examples.
func demoTable(parts int) (*aggdb.Table, error) {
	table, err := aggdb.NewTable(aggdb.Schema{
		{Name: "country", Type: aggdb.TypeString},
		{Name: "day", Type: aggdb.TypeInt},
		{Name: "user", Type: aggdb.TypeInt},
	}, parts)
	if err != nil {
		return nil, err
	}
	countries := []string{"at", "de", "us", "jp"}
	user := 0
	for ci, c := range countries {
		for u := 0; u < (ci+1)*5000; u++ {
			for visit := 0; visit < 3; visit++ {
				if err := table.Append(c, (u+visit)%7, user); err != nil {
					return nil, err
				}
			}
			user++
		}
	}
	return table, nil
}

// loadTSV reads a TSV whose header line declares "name:type" columns.
func loadTSV(path string, parts int) (*aggdb.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("ell-sql: %s is empty", path)
	}
	var schema aggdb.Schema
	for _, h := range strings.Split(sc.Text(), "\t") {
		name, typ, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("ell-sql: header field %q is not name:type", h)
		}
		switch strings.ToLower(typ) {
		case "string":
			schema = append(schema, aggdb.Column{Name: name, Type: aggdb.TypeString})
		case "int":
			schema = append(schema, aggdb.Column{Name: name, Type: aggdb.TypeInt})
		default:
			return nil, fmt.Errorf("ell-sql: unsupported type %q (string|int)", typ)
		}
	}
	table, err := aggdb.NewTable(schema, parts)
	if err != nil {
		return nil, err
	}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != len(schema) {
			return nil, fmt.Errorf("ell-sql: line %d has %d fields, want %d", lineNo, len(fields), len(schema))
		}
		row := make([]any, len(fields))
		for i, v := range fields {
			if schema[i].Type == aggdb.TypeString {
				row[i] = v
				continue
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ell-sql: line %d column %s: %v", lineNo, schema[i].Name, err)
			}
			row[i] = n
		}
		if err := table.Append(row...); err != nil {
			return nil, fmt.Errorf("ell-sql: line %d: %v", lineNo, err)
		}
	}
	return table, sc.Err()
}
