package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The benchmark must keep compiling, unchanged, on the parent and the child
// of every later change, including the ones that delete duplicate
// mechanisms. So it may touch the system only through the surface below,
// and none of the surfaces already marked for deletion.

// allowedImports are the repository packages the benchmark may import, with
// the package-level names it may use from each.
var allowedImports = map[string][]string{
	"exaloglog":                   {"New", "NewHybrid", "FromBinary", "Sketch"},
	"exaloglog/internal/core":     {"Config", "NewTokenSet", "DefaultTokenV", "SolveMLCounted"},
	"exaloglog/internal/hashing":  {"Wy64", "WyString", "Mix64", "SplitMix64"},
	"exaloglog/internal/compress": {"EncodeBlob", "DecodeBlob"},
	"exaloglog/window":            {"New", "Counter"},
	"exaloglog/server":            {"NewStore", "NewServer", "Dial", "Store", "Server", "Client", "Result"},
	"exaloglog/cluster":           {"NewNode", "DialCluster", "Node", "ClusterClient"},
}

// forbiddenSelectors may not follow a dot anywhere, whatever the receiver:
// Node.Sync, server.MultiClient and its constructor, raw commands through
// Client.Do / Pipeline.Do / Server.Handle, and the client-side DUMP verb.
// (Store.Dump, the Go method, is part of the store layer and is the one
// exception, recognised by its receiver.)
var forbiddenSelectors = []string{"Sync", "MultiClient", "DialMulti", "Do", "Handle", "Restore"}

// forbiddenVerbs may not appear as string literals: the raw wire verbs of
// the cluster's internal protocol and of the plain dump.
var forbiddenVerbs = []string{"CLUSTER", "MLPFADD", "MLADD", "DUMP", "DUMPZ", "ABSORB", "XFER"}

func TestAPIFence(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			files++
			checkFile(t, fset, path, file)
		}
	}
	if files < 10 {
		t.Errorf("parsed only %d files", files)
	}
}

func checkFile(t *testing.T, fset *token.FileSet, path string, file *ast.File) {
	local := map[string]string{} // local package name -> import path, repository packages only
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(p, "/")
		if first != "exaloglog" {
			if strings.Contains(first, ".") {
				t.Errorf("%s imports %s: only the standard library and this repository", path, p)
			}
			continue
		}
		if _, ok := allowedImports[p]; !ok {
			t.Errorf("%s imports %s, which is outside the benchmark's fence", path, p)
			continue
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = p
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := n.Sel.Name
			if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil {
				if p, isPkg := local[id.Name]; isPkg {
					if !slices.Contains(allowedImports[p], sel) {
						t.Errorf("%s: %s.%s is outside the benchmark's fence", fset.Position(n.Pos()), id.Name, sel)
					}
					return true
				}
			}
			if slices.Contains(forbiddenSelectors, sel) {
				t.Errorf("%s: .%s is a surface the benchmark must not depend on", fset.Position(n.Pos()), sel)
			}
			if sel == "Dump" {
				if id, ok := n.X.(*ast.Ident); !ok || id.Name != "store" {
					t.Errorf("%s: .Dump on anything but a *server.Store sends the raw DUMP verb", fset.Position(n.Pos()))
				}
			}
		case *ast.BasicLit:
			if n.Kind != token.STRING || strings.HasSuffix(path, "fence_test.go") {
				return true
			}
			s, err := strconv.Unquote(n.Value)
			if err != nil {
				return true
			}
			for _, word := range strings.Fields(s) {
				if slices.Contains(forbiddenVerbs, word) {
					t.Errorf("%s: raw verb %s in %q", fset.Position(n.Pos()), word, s)
				}
			}
		}
		return true
	})
}
