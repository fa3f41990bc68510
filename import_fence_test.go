package exaloglog_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServingPathImportFence: the serving path (server/, cluster/,
// window/) is built from the sketch core and the hash alone. The
// reproduction apparatus — the baseline sketches, the simulation and
// comparison harnesses, the experimental variants, the entropy coder of the
// compressed-size experiments — must stay out of it, so it can change or go
// without touching what serves traffic. Test files may import what they
// like.
func TestServingPathImportFence(t *testing.T) {
	fenced := map[string]bool{}
	for _, pkg := range []string{"hll", "hlll", "pcsa", "spike", "compare", "simulation", "geomell", "mvp", "workload", "compress"} {
		fenced["exaloglog/internal/"+pkg] = true
	}
	for _, dir := range []string{"server", "cluster", "window"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s/ (%v)", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); fenced[path] {
					t.Errorf("%s imports %s: the serving path must not depend on the reproduction apparatus", file, path)
				}
			}
		}
	}
}
