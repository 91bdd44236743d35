package targets

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// plainLockAllowlist names the sync.Mutex fields a target may keep, as
// package.Type.field. Each critical section makes no hook call, so its
// holder can never wait at a sync point and the scheduler loses nothing by
// not seeing its waiters.
var plainLockAllowlist = map[string]string{
	"memcached.KV.cmdMu": "guards the command-class counters only",
}

// TestTargetLocksVisible keeps every volatile lock of a target, and of the
// mini-PMDK the targets build on, visible to the PM-aware scheduler: a
// thread waiting for a plain sync.Mutex looks runnable, so a cond_wait whose
// thread holds that mutex could only end by the wall-clock backstop. Targets
// use rt.Mutex (pmplain.Mutex in the plain dialect) instead.
func TestTargetLocksVisible(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{filepath.Join("..", "pmdk")}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	fset := token.NewFileSet()
	seen := 0
	for _, d := range dirs {
		pkgs, err := parser.ParseDir(fset, d, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				seen++
				for _, bad := range plainLockFields(f) {
					if _, ok := plainLockAllowlist[pkg.Name+"."+bad.name]; ok {
						continue
					}
					t.Errorf("%s:%d: %s is a %s; use rt.Mutex (pmplain.Mutex in plain code) so the scheduler sees its waiters",
						filepath.ToSlash(path), fset.Position(bad.pos).Line, bad.name, bad.typ)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no target sources found")
	}
}

type lockField struct {
	name, typ string
	pos       token.Pos
}

// plainLockFields returns the struct fields of f, named Type.field, whose
// type is sync.Mutex or sync.RWMutex.
func plainLockFields(f *ast.File) []lockField {
	syncName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
			syncName = "sync"
			if imp.Name != nil {
				syncName = imp.Name.Name
			}
		}
	}
	if syncName == "" {
		return nil
	}
	var out []lockField
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fld := range st.Fields.List {
				typ := fld.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				sel, ok := typ.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != syncName || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
					continue
				}
				names := []string{sel.Sel.Name} // embedded
				if len(fld.Names) > 0 {
					names = names[:0]
					for _, n := range fld.Names {
						names = append(names, n.Name)
					}
				}
				for _, n := range names {
					out = append(out, lockField{name: ts.Name.Name + "." + n, typ: "sync." + sel.Sel.Name, pos: fld.Pos()})
				}
			}
		}
	}
	return out
}
