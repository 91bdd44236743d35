// Package instr is the pminstr auto-instrumentation generator: given a Go
// package written against the plain pmplain dialect (internal/pmplain), it
// emits an instrumented package in which every persistent-memory
// load, store, flush, fence and annotation is rewritten into the
// corresponding rt.Thread hook call with taint labels threaded through —
// the tool-assisted analogue of the paper's compile-time instrumentation
// pass (DESIGN.md §15).
//
// Two properties are load-bearing:
//
//   - Shared vocabulary: accesses are classified through internal/lint's
//     exported hook tables (lint.ThreadHookKind), the same tables pmvet's
//     analyzers check, so generated output is checkable by pmvet and the
//     two tools cannot drift apart. Generated code is required to produce
//     ZERO pmvet findings; CI pins this.
//
//   - Line-number preservation: every rewrite is a byte-range splice that
//     keeps the newline count of the region it replaces, so each PM access
//     in the generated package sits on the same line as in the plain source.
//     Site IDs (and therefore bug fingerprints) are file:line with base
//     filenames, and each output file keeps its source's base name, so the
//     generated target's fingerprints name the plain source's lines.
package instr

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/pmrace-go/pmrace/internal/lint"
)

// pmplainSuffix identifies the plain dialect package by import-path suffix,
// matching the suffix convention of internal/lint's analyzers.
const pmplainSuffix = "internal/pmplain"

// Options configures one generation run.
type Options struct {
	// PkgName is the package name of the generated package
	// (required; it must differ from the source package name so both can
	// live in the same module).
	PkgName string
}

// File is one generated source file.
type File struct {
	Name string // base name of the source file, e.g. "pclht.go"
	Src  []byte
}

// Generate instruments every file of pkg, returning the generated files in
// the order of pkg.Files. The input package must import internal/pmplain;
// all rewrite errors are joined and reported together.
func Generate(pkg *lint.Package, opts Options) ([]File, error) {
	if opts.PkgName == "" {
		return nil, errors.New("instr: Options.PkgName is required")
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("instr: package %s has no files", pkg.PkgPath)
	}
	pmplainPath := findPmplainImport(pkg)
	if pmplainPath == "" {
		return nil, fmt.Errorf("instr: package %s does not import %s", pkg.PkgPath, pmplainSuffix)
	}
	internalPrefix := strings.TrimSuffix(pmplainPath, "pmplain")

	srcs := map[*ast.File][]byte{}
	names := map[*ast.File]string{}
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, fmt.Errorf("instr: %w", err)
		}
		srcs[f], names[f] = src, filepath.Base(filename)
	}

	aug := computeAugmented(pkg, internalPrefix, srcs)

	var files []File
	var errs []error
	for _, f := range pkg.Files {
		fg := newFileGen(pkg, f, srcs[f], names[f], opts, internalPrefix, aug)
		out, err := fg.run()
		errs = append(errs, fg.errs...)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if len(fg.errs) == 0 {
			files = append(files, File{Name: names[f], Src: out})
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return files, nil
}

func findPmplainImport(pkg *lint.Package) string {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && strings.HasSuffix(path, pmplainSuffix) {
				return path
			}
		}
	}
	return ""
}

// computeAugmented runs the augmentation fixed point: an unexported
// function whose returned values derive from load labels gains an appended
// taint.Label result, which can in turn make its callers' returns labeled.
// Exported functions are never augmented — they are the package's public
// (often interface-constrained) surface, and hand-instrumented targets
// follow the same convention.
func computeAugmented(pkg *lint.Package, internalPrefix string, srcs map[*ast.File][]byte) map[types.Object]bool {
	aug := map[types.Object]bool{}
	for range pkg.Files {
		changed := false
		for _, f := range pkg.Files {
			fg := newFileGen(pkg, f, srcs[f], "", Options{PkgName: "probe"}, internalPrefix, aug)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Type.Results == nil || fd.Name.IsExported() {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil || aug[obj] {
					continue
				}
				probe := newFnGen(fg, fd, false, false)
				probe.walk()
				if probe.returnLabeled {
					aug[obj] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return aug
}

// fileGen accumulates the edits for one source file.
type fileGen struct {
	pkg            *lint.Package
	file           *ast.File
	src            []byte
	name           string
	opts           Options
	internalPrefix string
	aug            map[types.Object]bool

	edits []*edit
	needs map[string]bool // import paths the rewritten file requires
	errs  []error
}

func newFileGen(pkg *lint.Package, file *ast.File, src []byte, name string, opts Options, internalPrefix string, aug map[types.Object]bool) *fileGen {
	return &fileGen{
		pkg: pkg, file: file, src: src, name: name, opts: opts,
		internalPrefix: internalPrefix, aug: aug,
		needs: map[string]bool{},
	}
}

func (fg *fileGen) off(pos token.Pos) int { return fg.pkg.Fset.Position(pos).Offset }

func (fg *fileGen) addEdit(e *edit) { fg.edits = append(fg.edits, e) }

func (fg *fileGen) need(path string) { fg.needs[path] = true }

func (fg *fileGen) errf(pos token.Pos, format string, args ...any) {
	fg.errs = append(fg.errs, fmt.Errorf("%s: %s", fg.pkg.Fset.Position(pos), fmt.Sprintf(format, args...)))
}

func (fg *fileGen) run() ([]byte, error) {
	fg.packageEdit()
	fg.selectorPass()
	for _, decl := range fg.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		augmented := false
		if obj := fg.pkg.Info.Defs[fd.Name]; obj != nil {
			augmented = fg.aug[obj]
		}
		g := newFnGen(fg, fd, augmented, true)
		g.walk()
	}
	fg.markerEdit()
	fg.importsEdit()
	if len(fg.errs) > 0 {
		return nil, nil
	}
	out, err := applyEdits(fg.src, fg.edits)
	if err != nil {
		return nil, err
	}
	return out, fg.verify(out)
}

func (fg *fileGen) packageEdit() {
	lo, hi := fg.off(fg.file.Name.Pos()), fg.off(fg.file.Name.End())
	fg.addEdit(&edit{lo: lo, hi: hi, parts: []any{fg.opts.PkgName}, what: "package clause"})
}

// markerEdit places the standard generated-code marker. When line 1 is a
// comment it is replaced in place (keeping every following line number);
// otherwise the marker is appended at end of file, which also shifts no
// existing line.
func (fg *fileGen) markerEdit() {
	marker := fmt.Sprintf("// Code generated by pminstr from %s/%s; DO NOT EDIT.", fg.pkg.PkgPath, fg.name)
	nl := bytes.IndexByte(fg.src, '\n')
	if nl < 0 {
		nl = len(fg.src)
	}
	if bytes.HasPrefix(bytes.TrimSpace(fg.src[:nl]), []byte("//")) {
		fg.addEdit(&edit{lo: 0, hi: nl, parts: []any{marker}, what: "generated marker"})
		return
	}
	tail := marker + "\n"
	if len(fg.src) > 0 && fg.src[len(fg.src)-1] != '\n' {
		tail = "\n" + tail
	}
	fg.addEdit(&edit{lo: len(fg.src), hi: len(fg.src), parts: []any{tail}, what: "generated marker", freeform: true})
}

// selectorPass renames pmplain type and constructor references to their
// instrumented equivalents: Mem -> rt.Thread, ObjPool -> pmdk.ObjPool,
// Create/Open -> pmdk.Create/Open. Any other qualified pmplain reference is
// an error.
func (fg *fileGen) selectorPass() {
	ast.Inspect(fg.file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := fg.pkg.Info.Uses[id].(*types.PkgName)
		if !ok || !strings.HasSuffix(pn.Imported().Path(), pmplainSuffix) {
			return true
		}
		var repl, imp string
		switch sel.Sel.Name {
		case "Mem":
			repl, imp = "rt.Thread", fg.internalPrefix+"rt"
		case "ObjPool":
			repl, imp = "pmdk.ObjPool", fg.internalPrefix+"pmdk"
		case "Create":
			repl, imp = "pmdk.Create", fg.internalPrefix+"pmdk"
		case "Open":
			repl, imp = "pmdk.Open", fg.internalPrefix+"pmdk"
		default:
			fg.errf(sel.Pos(), "pmplain.%s has no instrumented equivalent", sel.Sel.Name)
			return true
		}
		fg.need(imp)
		fg.addEdit(&edit{lo: fg.off(sel.Pos()), hi: fg.off(sel.End()), parts: []any{repl}, what: "pmplain." + sel.Sel.Name})
		return true
	})
}

// importsEdit rewrites the import block in place: the pmplain import is
// dropped, newly required instrumentation imports are added, and the block
// is re-laid-out (stdlib group, blank line, module group) padded with
// comment lines so it spans exactly the same source lines as the original.
func (fg *fileGen) importsEdit() {
	var decl *ast.GenDecl
	for _, d := range fg.file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if decl != nil {
			fg.errf(gd.Pos(), "multiple import declarations are not supported")
			return
		}
		decl = gd
	}
	if decl == nil {
		if len(fg.needs) > 0 {
			fg.errf(fg.file.Package, "file needs instrumentation imports but has no import block")
		}
		return
	}
	if !decl.Lparen.IsValid() {
		fg.errf(decl.Pos(), "only parenthesized import blocks are supported")
		return
	}

	have := map[string]bool{}
	var paths []string
	for _, spec := range decl.Specs {
		is := spec.(*ast.ImportSpec)
		if is.Name != nil {
			fg.errf(is.Pos(), "named imports are not supported")
			return
		}
		path, err := strconv.Unquote(is.Path.Value)
		if err != nil {
			fg.errf(is.Pos(), "bad import path")
			return
		}
		if strings.HasSuffix(path, pmplainSuffix) {
			continue // replaced by instrumentation imports
		}
		if !have[path] {
			have[path] = true
			paths = append(paths, path)
		}
	}
	for path := range fg.needs {
		if !have[path] {
			have[path] = true
			paths = append(paths, path)
		}
	}

	var std, mod []string
	for _, p := range paths {
		if strings.Contains(strings.SplitN(p, "/", 2)[0], ".") {
			mod = append(mod, p)
		} else {
			std = append(std, p)
		}
	}
	sort.Strings(std)
	sort.Strings(mod)

	var lines []string
	for _, p := range std {
		lines = append(lines, "\t"+strconv.Quote(p))
	}
	if len(std) > 0 && len(mod) > 0 {
		lines = append(lines, "")
	}
	modStart := len(lines)
	for _, p := range mod {
		lines = append(lines, "\t"+strconv.Quote(p))
	}

	// Region: from the start of the first line after `import (` to the
	// start of the line holding `)`.
	lo := fg.off(decl.Lparen) + 1
	for lo < len(fg.src) && fg.src[lo-1] != '\n' {
		lo++
	}
	hi := fg.off(decl.Rparen)
	for hi > lo && fg.src[hi-1] != '\n' {
		hi--
	}
	want := bytes.Count(fg.src[lo:hi], []byte("\n"))

	// Fit the block into exactly the original number of lines: pad with
	// comment lines, or fold module imports together with explicit
	// semicolons (legal inside a parenthesized import list).
	for len(lines) < want {
		lines = append(lines, "\t//")
	}
	for len(lines) > want && len(lines) > modStart+1 {
		last := len(lines) - 1
		lines[last-1] = lines[last-1] + "; " + strings.TrimPrefix(lines[last], "\t")
		lines = lines[:last]
	}
	if len(lines) != want {
		fg.errf(decl.Pos(), "cannot fit %d import lines into the original %d-line block", len(lines), want)
		return
	}
	fg.addEdit(&edit{lo: lo, hi: hi, parts: []any{strings.Join(lines, "\n") + "\n"}, what: "import block"})
}

// verify re-parses the output, checking syntax, the package clause, and
// that no existing line moved.
func (fg *fileGen) verify(out []byte) error {
	fset := token.NewFileSet()
	parsed, err := parser.ParseFile(fset, fg.name, out, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("instr: generated %s does not parse: %w", fg.name, err)
	}
	if parsed.Name.Name != fg.opts.PkgName {
		return fmt.Errorf("instr: generated %s has package %s, want %s", fg.name, parsed.Name.Name, fg.opts.PkgName)
	}
	origLines := bytes.Count(fg.src, []byte("\n"))
	newLines := bytes.Count(out, []byte("\n"))
	if newLines != origLines && newLines != origLines+1 { // +1: marker appended at EOF
		return fmt.Errorf("instr: generated %s has %d lines, source has %d; line numbers must be preserved", fg.name, newLines, origLines)
	}
	return nil
}
