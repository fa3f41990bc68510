package main

import (
	"bytes"
	"strings"
	"testing"
)

var tiny = sizes{anfNodes: 200, overlapN: 1000, windowPerSec: 50, skewEvents: 10000}

// checkTable fails the test unless out is one TSV table — comment lines,
// a header, at least one row — whose rows have as many columns as the
// header.
func checkTable(t *testing.T, name, out string) {
	t.Helper()
	var header []string
	rows := 0
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case header == nil:
			header = strings.Split(line, "\t")
		case len(strings.Split(line, "\t")) != len(header):
			t.Errorf("%s: row %q does not have the header's %d columns", name, line, len(header))
		default:
			rows++
		}
	}
	if len(header) < 2 || rows == 0 {
		t.Errorf("%s: header %q and %d rows; want a TSV table\n%s", name, header, rows, out)
	}
}

func TestEveryExperimentAtTinySizes(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var out bytes.Buffer
			e.run(&out, tiny)
			checkTable(t, e.name, out.String())
		})
	}
}

func TestRunPicksOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "overlap"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if out := stdout.String(); !strings.HasPrefix(out, "# EXT-3:") || strings.Contains(out, "# EXT-1:") {
		t.Errorf("-experiment overlap printed\n%s", out)
	}
	checkTable(t, "overlap", stdout.String())
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-experiment", "hardcoded"}, {"-bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
	}
}
