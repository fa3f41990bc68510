package exaloglog_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	for _, pkg := range []string{"hll", "hlll", "pcsa", "spike", "compare", "simulation", "mvp", "workload", "compress"} {
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

// TestOneStringHash: the module hashes strings one way, through
// internal/hashing — keys to shards and to their owners, members to their
// placement, elements to tokens. No non-test file of the module imports
// hash/fnv or hash/maphash, whose hashes would be a second way to reason
// about. Nested modules (benchmark/) and testdata are not this module's
// packages.
func TestOneStringHash(t *testing.T) {
	fenced := map[string]bool{"hash/fnv": true, "hash/maphash": true}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); fenced[p] {
				t.Errorf("%s imports %s: hash strings through exaloglog/internal/hashing", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no Go file at all: the walk is not looking at this module")
	}
}

// TestClusterFansOutThroughEachOwner: the cluster package has one fan-out.
// Forwarded writes, reads and gathers and SETMAP broadcasts all reach
// their members through Node.eachOwner, so the non-test code of
// cluster/ holds exactly one go statement, and it is in eachOwner. A
// second way to run peers in parallel is a second schedule to reason
// about.
func TestClusterFansOutThroughEachOwner(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("cluster", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files under cluster/ (%v)", err)
	}
	var found []string // "position in function", one per go statement
	inEachOwner := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			name := "a package-level value"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					found = append(found, fmt.Sprintf("%s in %s", fset.Position(g.Pos()), name))
					if name == "eachOwner" {
						inEachOwner++
					}
				}
				return true
			})
		}
	}
	if len(found) != 1 || inEachOwner != 1 {
		t.Errorf("cluster/ holds %d go statements, want exactly one, in eachOwner: %v", len(found), found)
	}
}

// TestClusterNeverSleeps: nothing in cluster/'s non-test code waits on a
// timer to let another node go first. Membership needs no back-off, since
// concurrent changes join instead of competing, and every other wait is a
// reply or a deadline.
func TestClusterNeverSleeps(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("cluster", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files under cluster/ (%v)", err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" {
					t.Errorf("%s: time.Sleep in cluster/", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
}

// TestEveryMainIsTested: a main stays only if a test runs it. Every
// package main directory of this module needs a _test.go file beside it;
// an untested demo belongs in a package's Example, where go test checks
// what it prints. Nested modules (benchmark/) and testdata are not this
// module's packages.
func TestEveryMainIsTested(t *testing.T) {
	mains := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		isMain, tested := false, false
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				tested = true
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
			if err != nil {
				return err
			}
			isMain = isMain || f.Name.Name == "main"
		}
		if isMain {
			mains++
			if !tested {
				t.Errorf("%s is a package main with no _test.go beside it", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mains == 0 {
		t.Fatal("found no package main at all: the walk is not looking at this module")
	}
}

// TestReadmeNamesEveryMain: README names exactly the binaries there are.
// The first sentence of its binaries paragraph ("Binaries live under
// `cmd/`: …") names every package main directory under cmd/ and nothing
// else, and every cmd/<name> path README mentions is one of them.
func TestReadmeNamesEveryMain(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	mains := map[string]bool{}
	for _, d := range dirs {
		files, err := filepath.Glob(filepath.Join("cmd", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name.Name == "main" {
				mains[d.Name()] = true
			}
		}
	}
	if len(mains) == 0 {
		t.Fatal("found no package main under cmd/")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const lead = "Binaries live under `cmd/`:"
	_, rest, ok := strings.Cut(string(readme), lead)
	if !ok {
		t.Fatalf("README has no binaries paragraph starting %q", lead)
	}
	sentence, _, _ := strings.Cut(rest, ".")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(sentence, -1) {
		named[m[1]] = true
	}
	for name := range mains {
		if !named[name] {
			t.Errorf("cmd/%s is a package main that README's binaries paragraph does not name", name)
		}
	}
	for name := range named {
		if !mains[name] {
			t.Errorf("README's binaries paragraph names %s, which is no package main under cmd/", name)
		}
	}
	for _, m := range regexp.MustCompile(`cmd/([A-Za-z0-9_-]+)`).FindAllStringSubmatch(string(readme), -1) {
		if !mains[m[1]] {
			t.Errorf("README mentions cmd/%s, which is no package main", m[1])
		}
	}
}
