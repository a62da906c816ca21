package faasnap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEveryOptionHasACaller holds the configuration surface to the
// options something uses. Every field of the config types below must be
// set by some non-test file outside the type's own package — a cmd, the
// benchmark module, or another package: a value nobody sets is a
// constant, and belongs in the code as one. And every field of them and
// of core.HostConfig must be read (x.Field) by some non-test file: a
// setting nothing reads is removed. HostConfig's model parameters are set
// only by DefaultHostConfig, so it is held to the read rule alone.
func TestEveryOptionHasACaller(t *testing.T) {
	types := []struct {
		dir, pkg, typ string
		readOnly      bool // held to the read rule only
	}{
		{"internal/daemon", "faasnap/internal/daemon", "Config", false},
		{"internal/daemon", "faasnap/internal/daemon", "ResilienceConfig", false},
		{"internal/gateway", "faasnap/internal/gateway", "Config", false},
		{"internal/slo", "faasnap/internal/slo", "Objective", false},
		{"internal/core", "faasnap/internal/core", "HostConfig", true},
	}
	files := nonTestFiles(t, token.NewFileSet())
	// read holds every selector name some non-test file reads: x.F
	// anywhere but as the target of a plain assignment.
	read := map[string]bool{}
	for _, f := range files {
		written := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						written[lhs] = true
					}
				}
			case *ast.SelectorExpr:
				if !written[n] {
					read[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, tc := range types {
		name := filepath.Base(tc.pkg) + "." + tc.typ
		fields := declaredFields(files, tc.dir, tc.typ)
		if len(fields) == 0 {
			t.Fatalf("%s: no fields found in %s", name, tc.dir)
		}
		for _, field := range fields {
			if !read[field] {
				t.Errorf("%s.%s is read by no non-test file: remove it", name, field)
			}
		}
		if tc.readOnly {
			continue
		}
		set := map[string]bool{}
		for path, f := range files {
			if filepath.Dir(path) == filepath.Clean(tc.dir) {
				continue
			}
			local := importName(f, tc.pkg)
			if local == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == tc.typ {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
							for _, el := range n.Elts {
								if kv, ok := el.(*ast.KeyValueExpr); ok {
									if key, ok := kv.Key.(*ast.Ident); ok {
										set[key.Name] = true
									}
								}
							}
						}
					}
				case *ast.AssignStmt:
					// cfg.Field = v: without type information, a field of
					// this name in a file that imports the package.
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
		for _, field := range fields {
			if !set[field] {
				t.Errorf("%s.%s is set by no caller outside %s: make it a constant", name, field, tc.dir)
			}
		}
	}
}

// TestStateDirHasOneOwner keeps internal/atomicfile the one owner of the
// state directory: no non-test file of the packages that keep state —
// the chunk store, the journal, the snapfile codec, the daemon — calls
// an os or path/filepath function that touches the filesystem. Every
// byte they persist then takes the flush discipline atomicfile enforces,
// and the crash tests' in-memory disk sees every operation. Nor does a
// storage layer import internal/chaos: crash tests choose their instants
// from the disk's operations, so the write path carries no test
// instrumentation.
func TestStateDirHasOneOwner(t *testing.T) {
	touchesDisk := map[string]string{
		"os": " Chmod Chown Chtimes Create CreateTemp DirFS Link Lstat Mkdir MkdirAll MkdirTemp Open OpenFile" +
			" ReadDir ReadFile Readlink Remove RemoveAll Rename Stat Symlink Truncate WriteFile ",
		"path/filepath": " EvalSymlinks Glob Walk WalkDir ",
	}
	fset := token.NewFileSet()
	for path, f := range nonTestFiles(t, fset) {
		dir := " " + filepath.ToSlash(filepath.Dir(path)) + " "
		if strings.Contains(" internal/atomicfile internal/casstore internal/statedir internal/snapfile ", dir) && importName(f, "faasnap/internal/chaos") != "" {
			t.Errorf("%s imports faasnap/internal/chaos; the storage layers carry no test instrumentation", path)
		}
		if !strings.Contains(" internal/casstore internal/statedir internal/snapfile internal/daemon ", dir) {
			continue
		}
		for pkg, funcs := range touchesDisk {
			local := importName(f, pkg)
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && local != "" {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && strings.Contains(funcs, " "+sel.Sel.Name+" ") {
						t.Errorf("%s calls %s.%s; the state directory is reached through internal/atomicfile",
							fset.Position(sel.Pos()), pkg, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// nonTestFiles parses every non-test Go file under the repository root,
// by path.
func nonTestFiles(t *testing.T, fset *token.FileSet) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		files[path] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// declaredFields lists the fields of struct type typ declared in dir.
func declaredFields(files map[string]*ast.File, dir, typ string) []string {
	var fields []string
	for path, f := range files {
		if filepath.Dir(path) != filepath.Clean(dir) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						fields = append(fields, id.Name)
					}
				}
			}
			return false
		})
	}
	return fields
}

// importName is the name file f refers to package path by, "" when f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return filepath.Base(path)
		}
	}
	return ""
}
