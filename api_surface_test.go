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
	"slices"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden surface files")

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

// exportedFields returns the exported fields of the named struct types of
// one package directory as "dir.Type{Field}" — each one a value somebody can
// set independently.
func exportedFields(t *testing.T, dir string, types ...string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := spec.Type.(*ast.StructType)
				if !ok || !slices.Contains(types, spec.Name.Name) {
					return false
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							names = append(names, dir+"."+spec.Name.Name+"{"+id.Name+"}")
						}
					}
				}
				return false
			})
		}
	}
	return names
}

// TestServiceSurfaceGolden pins the serving layer's entry points and its
// knob count: the exported identifiers and methods of internal/service and
// internal/sched, plus every exported field of the three config structs. A
// new option, mode or second way into the request pipeline shows up as a
// diff of testdata/service.golden (DESIGN.md, "Removed in PR 20"). Run with
// -update to regenerate after an intentional change.
func TestServiceSurfaceGolden(t *testing.T) {
	names := append(exportedNames(t, "internal/service"), exportedNames(t, "internal/sched")...)
	names = append(names, exportedFields(t, "internal/service", "Config", "WALConfig")...)
	names = append(names, exportedFields(t, "internal/sched", "Config")...)
	sort.Strings(names)
	got := []byte(strings.Join(names, "\n") + "\n")
	path := filepath.Join("testdata", "service.golden")
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
		t.Fatalf("exported surface of internal/service + internal/sched drifted from %s\ngot:\n%swant:\n%s", path, got, want)
	}
}
