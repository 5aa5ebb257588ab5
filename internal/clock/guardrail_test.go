package clock

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

// TestNoDirectWallClock is the wall-clock guardrail: outside this package,
// non-test code under internal/ reads wall time only through a WallClock
// (or an injected func() time.Time), never through time.Now or time.Since
// directly. A direct read cannot be faked, so it makes the code that uses it
// untestable on a Fake clock. Calls and function values (now = time.Now)
// both count.
func TestNoDirectWallClock(t *testing.T) {
	root := ".."
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "clock") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := timeImportName(f)
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
				found = append(found, fset.Position(sel.Pos()).String()+": time."+sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: read wall time through a clock.WallClock instead", f)
	}
}

// timeImportName returns the local name f imports package time under, or ""
// when f does not import it.
func timeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "time" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "time"
	}
	return ""
}
