package exaloglog_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// stdInterfaceMethods are the method names a standard-library interface
// calls on a value's behalf (fmt.Stringer, error, encoding's marshalers,
// io's readers and writers, sort.Interface, errors' wrappers): such a
// method serves without any call naming it.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "AppendBinary": true,
	"MarshalText": true, "UnmarshalText": true, "AppendText": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
}

// unfencedPackages declare the module's outward surfaces: the root package
// is the public API, and server's and cluster's exported methods are the
// typed client side of the wire protocol. Package main declares nothing
// another package can call.
var unfencedPackages = map[string]bool{
	"exaloglog": true, "exaloglog/server": true, "exaloglog/cluster": true,
}

// publicCoreTypes are the internal/core types the root package re-exports
// by alias. Their methods are the library's public API, so a test naming
// one is enough to keep it.
var publicCoreTypes = map[string]bool{
	"Sketch": true, "Config": true, "TokenSet": true, "Coefficients": true,
	"Interval": true, "AtomicSketch": true, "Hybrid": true,
}

// deadNameAllowed are the exported names kept although only a test calls
// them, each with the check that needs it.
var deadNameAllowed = map[string]string{
	"exaloglog/similarity.Estimates.JaccardError": "the error bound of cmd/ell-paper's graded overlap-jaccard check (TestBeyondThePaperWithinThreeSigma)",
	"exaloglog/internal/pcsa.Sketch.EstimateFM":   "the Flajolet–Martin baseline TestMLBetterThanFM holds EstimateML to",
}

// TestNoDeadExportedNames: every exported function and method of a library
// package (all but the root package, server and cluster) is used by code
// that runs outside its own tests. A name counts as used when a non-test
// file of the module, an Example function or a file under benchmark/
// references it; a test alone does not keep a name — code only its tests
// run is dead, so delete it, or move a fixture into the tests. Methods of
// the core types the root package re-exports (publicCoreTypes) are public
// API and count a test too. A function counts as referenced by its package
// and name (Name inside its package, pkg.Name outside it), a method by its
// name after any dot. benchmark/ is only read.
func TestNoDeadExportedNames(t *testing.T) {
	type name struct{ pkg, ident string }
	type method struct{ pkg, recv, ident, where string }
	funcs := map[name]string{} // declared function -> where
	var methods []method
	// used and usedMethods hold what non-test code, Examples and
	// benchmark/ reference; testMethods the method names tests call.
	used, usedMethods, testMethods := map[name]bool{}, map[string]bool{}, map[string]bool{}
	files := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		dir := path.Join("exaloglog", filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		test := strings.HasSuffix(p, "_test.go")
		benchmark := dir == "exaloglog/benchmark" || strings.HasPrefix(dir, "exaloglog/benchmark/")
		fenced := !test && !benchmark && !unfencedPackages[dir] && f.Name.Name != "main"
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fenced || !fd.Name.IsExported() {
				continue
			}
			where := fset.Position(fd.Pos()).String()
			if fd.Recv == nil {
				funcs[name{dir, fd.Name.Name}] = where
			} else if !stdInterfaceMethods[fd.Name.Name] {
				methods = append(methods, method{dir, receiverName(fd.Recv.List[0].Type), fd.Name.Name, where})
			}
		}
		// record notes what root references. The name after a dot, a
		// field's or parameter's name and a literal's field key are not
		// references to a function of this package.
		record := func(root ast.Node, funcs map[name]bool, methods map[string]bool) {
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					methods[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							funcs[name{ip, n.Sel.Name}] = true
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field:
					ast.Inspect(n.Type, visit)
					return false
				case *ast.KeyValueExpr:
					if _, ok := n.Key.(*ast.Ident); ok {
						ast.Inspect(n.Value, visit)
						return false
					}
				case *ast.Ident:
					if !declared[n] {
						funcs[name{dir, n.Name}] = true
					}
				}
				return true
			}
			ast.Inspect(root, visit)
		}
		if !test || benchmark {
			record(f, used, usedMethods)
			return nil
		}
		record(f, map[name]bool{}, testMethods)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				record(fd, used, usedMethods)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || len(funcs) == 0 || len(methods) == 0 {
		t.Fatal("found no exported function or method in a library package: the walk is not looking at this module")
	}
	var dead []string
	allowed := map[string]bool{}
	report := func(key, where, kind string) {
		if _, ok := deadNameAllowed[key]; ok {
			allowed[key] = true
			return
		}
		dead = append(dead, where+": "+kind+" "+key)
	}
	for n, where := range funcs {
		if !used[n] {
			report(n.pkg+"."+n.ident, where, "func")
		}
	}
	for _, m := range methods {
		public := m.pkg == "exaloglog/internal/core" && publicCoreTypes[m.recv]
		if !usedMethods[m.ident] && !(public && testMethods[m.ident]) {
			report(m.pkg+"."+m.recv+"."+m.ident, m.where, "method")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is used by nothing but tests: delete it, or move it into the tests that use it", d)
	}
	for key := range deadNameAllowed {
		if !allowed[key] {
			t.Errorf("deadNameAllowed lists %s, which is no longer declared or is used outside tests: drop it from the list", key)
		}
	}
}

// receiverName is the type name of a method's receiver, without its
// pointer star or type parameters.
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
