package main

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// smoke runs one entry through run at smoke scale and returns its output.
func smoke(t *testing.T, id string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "smoke", id}, &stdout, &stderr); code != 0 {
		t.Fatalf("ell-paper -scale smoke %s: exit %d, stderr %q", id, code, stderr.String())
	}
	return stdout.String()
}

// columns splits a row into its columns: on tabs, or for Table 2's text
// table on the 36-wide algorithm name and the blank-separated fields
// after it.
func columns(line string, tsv bool) []string {
	if tsv {
		return strings.Split(line, "\t")
	}
	return append([]string{strings.TrimSpace(line[:36])}, strings.Fields(line[36:])...)
}

// table returns an entry's header and data rows (comment lines skipped),
// failing the test unless there is exactly one table and every row has as
// many columns as its header.
func table(t *testing.T, id, out string) (header []string, rows [][]string) {
	t.Helper()
	var tsv bool
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case line == "":
			t.Errorf("%s: blank line in output", id)
		case header == nil:
			tsv = strings.Contains(line, "\t")
			header = columns(line, tsv)
		default:
			row := columns(line, tsv)
			if len(row) != len(header) {
				t.Errorf("%s: row %q has %d columns, header %d", id, line, len(row), len(header))
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		t.Errorf("%s: no data rows", id)
	}
	return header, rows
}

// TestEveryEntryAtSmokeScale runs every figure and table and checks the
// shape of its table.
func TestEveryEntryAtSmokeScale(t *testing.T) {
	for _, e := range entries {
		t.Run(e.id, func(t *testing.T) { table(t, e.id, smoke(t, e.id)) })
	}
}

// TestFigure4Headline: the abstract's "43 % less space" than HLL is
// Figure 4's reference line, ELL(2,20) at MVP 3.673 and HLL at 6.449.
func TestFigure4Headline(t *testing.T) {
	out := smoke(t, "figure4")
	mvpOf := func(name string) float64 {
		m := regexp.MustCompile(`# reference:.* ` + regexp.QuoteMeta(name) + ` ([0-9.]+)`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("figure4: no reference MVP for %s in\n%s", name, out)
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	hll, ell := mvpOf("HLL=ELL(0,0)"), mvpOf("ELL(2,20)")
	if hll != 6.449 || ell != 3.673 {
		t.Errorf("reference MVPs HLL %.3f, ELL(2,20) %.3f; the paper has 6.449 and 3.673", hll, ell)
	}
	if saving := 1 - ell/hll; saving < 0.43 {
		t.Errorf("ELL(2,20) saves %.1f %% of HLL's space, want at least 43 %%", saving*100)
	}
}

// TestTable2Headline: ELL(2,20) and ELL(2,24) at p = 8 serialize to 896
// and 1 024 bytes, the register arrays of Table 2.
func TestTable2Headline(t *testing.T) {
	header, rows := table(t, "table2", smoke(t, "table2"))
	col := slices.Index(header, "serialized_B")
	if col < 0 {
		t.Fatalf("table2: no serialized_B column in %q", header)
	}
	want := map[string]string{"ELL (t=2, d=20, p=8)": "896", "ELL (t=2, d=24, p=8)": "1024"}
	for _, row := range rows {
		if w, ok := want[row[0]]; ok {
			if row[col] != w {
				t.Errorf("%s serializes to %s bytes, want %s", row[0], row[col], w)
			}
			delete(want, row[0])
		}
	}
	for name := range want {
		t.Errorf("table2: no row for %s", name)
	}
}

// TestSection6EntropyForEveryConfig: the closed-form entropy gives every
// configuration a number, d = 20 included, below the dense width.
func TestSection6EntropyForEveryConfig(t *testing.T) {
	header, rows := table(t, "section6", smoke(t, "section6"))
	dense, entropy := slices.Index(header, "dense_bits_per_reg"), slices.Index(header, "entropy_bits_per_reg")
	for _, row := range rows {
		h, err := strconv.ParseFloat(row[entropy], 64)
		w, _ := strconv.ParseFloat(row[dense], 64)
		if err != nil || h <= 0 || h >= w {
			t.Errorf("t=%s d=%s n=%s: entropy %q not in (0, %s)", row[0], row[1], row[3], row[entropy], row[dense])
		}
	}
}

func TestNoIdsPicksEveryEntry(t *testing.T) {
	got, err := pick(nil)
	if err != nil || len(got) != len(entries) {
		t.Fatalf("pick(nil) = %d entries, %v; want all %d", len(got), err, len(entries))
	}
	got, err = pick([]string{"table2", "figure1"})
	if err != nil || len(got) != 2 || got[0].id != "table2" || got[1].id != "figure1" {
		t.Fatalf("pick(table2, figure1) = %v, %v", got, err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"figure3"},
		{"-scale", "huge", "figure1"},
		{"-runs", "10"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), usageLine) {
			t.Errorf("%q: stdout %q, stderr %q; want only the usage on stderr", args, stdout.String(), stderr.String())
		}
	}
}
