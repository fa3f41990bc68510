package exaloglog_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
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

// unfencedPackages are packages whose exported names the walk does not
// check. It is empty: the root package, server and cluster are fenced like
// every library package, so a name only their tests call is dead there too.
// Package main declares nothing another package can call and is never
// checked.
var unfencedPackages = map[string]bool{}

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
	"exaloglog/similarity.Estimates.JaccardError":        "the error bound of cmd/ell-paper's graded overlap-jaccard check (TestBeyondThePaperWithinThreeSigma)",
	"exaloglog/internal/pcsa.Sketch.EstimateFM":          "the Flajolet–Martin baseline TestMLBetterThanFM holds the ML estimate to",
	"exaloglog/internal/pcsa.Sketch.AddHash":             "the raw PCSA reference the Windowed tests compare against (TestWindowedMatchesRaw, TestWindowedCompact)",
	"exaloglog/internal/pcsa.Sketch.UnmarshalCompressed": "the decoder TestSerializationRoundTrip and TestWindowedSerializationRoundTrips check the compressed CPC form of Table 2 and Figure 11 with",
	"exaloglog/server.Store.SetClock":                    "the fake clock cluster's TestTTLChaosDeterministicExpiry gives every node's store: it expires keys across packages, so no export_test.go seam reaches it",
}

// TestNoDeadExportedNames: every exported function and method of a library
// package — every package but package main — is used by code that runs
// outside its own tests. A name counts as used when a non-test
// file of the module, an Example function or a file under benchmark/
// references it; a test alone does not keep a name — code only its tests
// run is dead, so delete it, or move a fixture into the tests. Methods of
// the core types the root package re-exports (publicCoreTypes) are public
// API and count a test too. The module and benchmark/ are type-checked
// from source (the standard library from its export data), so a reference
// is to one declaration: a function is its package and name, a method its
// package, receiver type and name. A method nothing names still serves
// when it implements a used interface method: when a type of the module's
// non-test code whose method set holds it, its own or one it embeds,
// implements that interface. benchmark/ is only read.
func TestNoDeadExportedNames(t *testing.T) {
	fset := token.NewFileSet()
	dirs, err := parseModule(fset)
	if err != nil {
		t.Fatal(err)
	}
	tc := &typeChecker{fset: fset, dirs: dirs, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*checked{}}

	type decl struct{ key, where string }
	var declared []decl
	// used holds the functions and methods that non-test code, Examples
	// and benchmark/ reference, usedIface the interface methods among
	// them, testUsed what any test references.
	used, usedIface, testUsed := map[string]bool{}, map[*types.Func]bool{}, map[string]bool{}
	use := func(obj types.Object) {
		if key, iface := funcKey(obj); key != "" {
			used[key] = true
			if iface {
				usedIface[obj.(*types.Func).Origin()] = true
			}
		}
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if len(dirs[p].files) > 0 {
			c, err := tc.load(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, obj := range c.info.Uses {
				use(obj)
			}
			if !benchmarkDir(p) && !unfencedPackages[p] && c.pkg.Name() != "main" {
				scope := c.pkg.Scope()
				for _, n := range scope.Names() {
					switch obj := scope.Lookup(n).(type) {
					case *types.Func:
						if obj.Exported() {
							declared = append(declared, decl{p + "." + n, fset.Position(obj.Pos()).String()})
						}
					case *types.TypeName:
						named, ok := obj.Type().(*types.Named)
						if !ok || types.IsInterface(named) {
							continue
						}
						for i := 0; i < named.NumMethods(); i++ {
							if m := named.Method(i); m.Exported() && !stdInterfaceMethods[m.Name()] {
								key, _ := funcKey(m)
								declared = append(declared, decl{key, fset.Position(m.Pos()).String()})
							}
						}
					}
				}
			}
		}
		tests, err := tc.checkTests(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tests {
			for id, obj := range c.info.Uses {
				if key, _ := funcKey(obj); key != "" {
					testUsed[key] = true
				}
				if benchmarkDir(p) || c.inExample(id.Pos()) {
					use(obj)
				}
			}
		}
	}
	if len(declared) == 0 || len(used) == 0 {
		t.Fatal("found no exported function or method in a library package: the walk is not looking at this module")
	}
	for _, c := range tc.pkgs {
		scope := c.pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // a generic type implements an interface only once instantiated
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				mset := types.NewMethodSet(t)
				for m := range usedIface {
					iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
					if !types.Implements(t, iface) {
						continue
					}
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						key, _ := funcKey(sel.Obj())
						used[key] = true
					}
				}
			}
		}
	}
	var dead []string
	allowed := map[string]bool{}
	for _, d := range declared {
		public := false
		if rest, ok := strings.CutPrefix(d.key, "exaloglog/internal/core."); ok {
			recv, _, isMethod := strings.Cut(rest, ".")
			public = isMethod && publicCoreTypes[recv]
		}
		if used[d.key] || (public && testUsed[d.key]) {
			continue
		}
		if _, ok := deadNameAllowed[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		dead = append(dead, d.where+": "+d.key)
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

// TestEveryLibraryPackageIsImported: every library package — every
// package but package main — is imported by a non-test file of another
// package of the module or by a file under benchmark/. A package that
// only its own tests reach serves nothing: delete it. TestNoDeadExportedNames
// does not catch one, since its Examples and its own calls between its
// exported names count as uses.
func TestEveryLibraryPackageIsImported(t *testing.T) {
	dirs, err := parseModule(token.NewFileSet())
	if err != nil {
		t.Fatal(err)
	}
	imported := map[string]bool{}
	for p, d := range dirs {
		files := d.files
		if benchmarkDir(p) {
			files = slices.Concat(d.files, d.tests, d.xtests)
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				imported[ip] = true
			}
		}
	}
	var libraries []string
	for p, d := range dirs {
		if !benchmarkDir(p) && len(d.files) > 0 && d.files[0].Name.Name != "main" {
			libraries = append(libraries, p)
		}
	}
	if len(libraries) == 0 {
		t.Fatal("found no library package: the walk is not looking at this module")
	}
	sort.Strings(libraries)
	for _, p := range libraries {
		if !imported[p] {
			t.Errorf("package %s is imported by no other package and by nothing under benchmark/: delete it", p)
		}
	}
}

// srcDir is one directory's Go files for this platform, split the way go
// test builds them: the package, its in-package tests, its external
// (package x_test) tests.
type srcDir struct {
	files, tests, xtests []*ast.File
}

// benchmarkDir reports whether import path p is benchmark/ or below it.
func benchmarkDir(p string) bool {
	return p == "exaloglog/benchmark" || strings.HasPrefix(p, "exaloglog/benchmark/")
}

// parseModule parses every Go file of the module and of benchmark/ that
// builds on this platform, by import path. benchmark/ is a module of its
// own whose path, exaloglog/benchmark, is also its directory's.
func parseModule(fset *token.FileSet) (map[string]*srcDir, error) {
	dirs := map[string]*srcDir{}
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
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("exaloglog", filepath.ToSlash(filepath.Dir(p)))
		sd := dirs[ip]
		if sd == nil {
			sd = &srcDir{}
			dirs[ip] = sd
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			sd.files = append(sd.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			sd.xtests = append(sd.xtests, f)
		default:
			sd.tests = append(sd.tests, f)
		}
		return nil
	})
	return dirs, err
}

// checked is one type-checked package and what its identifiers refer to.
// examples are the extents of its test files' Example functions.
type checked struct {
	pkg      *types.Package
	info     *types.Info
	examples [][2]token.Pos
}

func (c *checked) inExample(pos token.Pos) bool {
	for _, e := range c.examples {
		if e[0] <= pos && pos < e[1] {
			return true
		}
	}
	return false
}

// typeChecker checks the module's packages from source in import order,
// each once, and imports the standard library's from std.
type typeChecker struct {
	fset *token.FileSet
	dirs map[string]*srcDir
	std  types.Importer
	pkgs map[string]*checked
}

func (tc *typeChecker) Import(p string) (*types.Package, error) {
	if _, ok := tc.dirs[p]; !ok {
		return tc.std.Import(p)
	}
	c, err := tc.load(p)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// load returns package p without its tests.
func (tc *typeChecker) load(p string) (*checked, error) {
	if c, ok := tc.pkgs[p]; ok {
		return c, nil
	}
	c, err := tc.check(p, tc.dirs[p].files, tc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	tc.pkgs[p] = c
	return c, nil
}

// checkTests returns package p with its in-package tests, and p's
// external test package, which imports the former as p.
func (tc *typeChecker) checkTests(p string) ([]*checked, error) {
	d := tc.dirs[p]
	var out []*checked
	imp := types.Importer(tc)
	if len(d.tests) > 0 {
		c, err := tc.check(p, slices.Concat(d.files, d.tests), tc)
		if err != nil {
			return nil, fmt.Errorf("%s with its tests: %w", p, err)
		}
		out = append(out, c)
		imp = importerFunc(func(path string) (*types.Package, error) {
			if path == p {
				return c.pkg, nil
			}
			return tc.Import(path)
		})
	}
	if len(d.xtests) > 0 {
		c, err := tc.check(p+"_test", d.xtests, imp)
		if err != nil {
			return nil, fmt.Errorf("%s_test: %w", p, err)
		}
		out = append(out, c)
	}
	var examples [][2]token.Pos
	for _, f := range slices.Concat(d.tests, d.xtests) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				examples = append(examples, [2]token.Pos{fd.Pos(), fd.End()})
			}
		}
	}
	for _, c := range out {
		c.examples = examples
	}
	return out, nil
}

func (tc *typeChecker) check(p string, files []*ast.File, imp types.Importer) (*checked, error) {
	var errs []error
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, _ := conf.Check(p, tc.fset, files, info)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return &checked{pkg: pkg, info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// funcKey names the function or method obj refers to — "pkg.Name" or
// "pkg.Recv.Name" — and reports an interface method. key is "" when obj
// is neither.
func funcKey(obj types.Object) (key string, iface bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	fn = fn.Origin()
	key = fn.Pkg().Path() + "." + fn.Name()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return key, false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		key = fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return key, types.IsInterface(t)
}
