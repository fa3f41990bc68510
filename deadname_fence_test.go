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

// TestNoDeadExportedNames: every exported function and method declared
// under internal/ is referenced somewhere other than its declaration — in
// the root module or in benchmark/, tests included. A name nothing calls is
// code nobody runs; delete it rather than keep it exported. A function
// counts as referenced by its package and name (Name inside its package,
// pkg.Name outside it), a method by its name after any dot. benchmark/ is
// only read.
func TestNoDeadExportedNames(t *testing.T) {
	type name struct{ pkg, ident string }
	funcs := map[name]string{} // declared function -> where
	methods := map[string]string{}
	usedFuncs := map[name]bool{}
	usedMethods := map[string]bool{}
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
		internal := strings.HasPrefix(dir, "exaloglog/internal/")
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !internal || !fd.Name.IsExported() || strings.HasSuffix(p, "_test.go") {
				continue
			}
			where := fset.Position(fd.Pos()).String()
			if fd.Recv == nil {
				funcs[name{dir, fd.Name.Name}] = where
			} else if !stdInterfaceMethods[fd.Name.Name] {
				methods[fd.Name.Name] = where
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				usedMethods[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						usedFuncs[name{ip, n.Sel.Name}] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					usedFuncs[name{dir, n.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || len(funcs) == 0 {
		t.Fatal("found no exported function under internal/: the walk is not looking at this module")
	}
	var dead []string
	for n, where := range funcs {
		if !usedFuncs[n] {
			dead = append(dead, where+": func "+n.ident)
		}
	}
	for m, where := range methods {
		if !usedMethods[m] {
			dead = append(dead, where+": method "+m)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is referenced nowhere else in the module or benchmark/: delete it", d)
	}
}
