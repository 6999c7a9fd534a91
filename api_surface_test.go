package parcluster

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/api.golden")

// exportedNames parses the non-test files of one package directory and
// returns its exported surface: top-level funcs, types, consts and vars as
// "dir.Name", exported methods of exported types as "dir.Type.Method".
func exportedNames(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(parts ...string) {
		for _, p := range parts {
			if !ast.IsExported(p) {
				return
			}
		}
		names = append(names, dir+"."+strings.Join(parts, "."))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name.Name)
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						add(id.Name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id.Name)
							}
						}
					}
				}
			}
		}
	}
	return names
}

// TestKernelAPISurfaceGolden pins the exported surface of the two packages
// that hold the paper's algorithms and its edgeMap, so an entry point, a
// traversal or a mode cannot come back unnoticed: one way in per kernel, per
// sweep and per edge operator (DESIGN.md, "Removed in PR 19"). Run with
// -update to regenerate after an intentional change.
func TestKernelAPISurfaceGolden(t *testing.T) {
	var names []string
	for _, dir := range []string{"internal/core", "internal/ligra"} {
		names = append(names, exportedNames(t, dir)...)
	}
	sort.Strings(names)
	got := []byte(strings.Join(names, "\n") + "\n")
	path := filepath.Join("testdata", "api.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exported surface of internal/core + internal/ligra drifted from %s\ngot:\n%swant:\n%s", path, got, want)
	}
}
