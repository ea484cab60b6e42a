// Package lint is dmevet's static-analysis suite: a set of analyzers that
// enforce the repo's determinism contract at the call site, before a
// violation can reach a differential test. Every load-bearing guarantee in
// this codebase — parallel batch pairing, sharded builds, remote dispatch over
// internal/wire, ECO rebuilds — rests on the invariant that a sub-build is a
// pure function of its inputs and any re-execution is bitwise-identical.
// The analyzers encode the ways that invariant is silently broken in Go:
// map iteration order (maprange), wall-clock reads (wallclock), the shared
// global math/rand source (seededrand), text-formatted floats on the wire
// (rawfloat), and unprotected goroutines (goprotect).
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic, an analysistest-style fixture harness with
// "// want" expectations) but is self-contained on the standard library:
// packages are loaded via `go list -export` and type-checked with the
// stdlib gc importer, so the suite builds offline with zero dependencies.
// Swapping the vendored shim for the real x/tools framework is a mechanical
// change if the dependency ever becomes available.
//
// Intentional findings are suppressed with an annotation on the offending
// line (or the line directly above):
//
//	//lint:nondet-ok <reason>
//
// The reason is mandatory: an annotation without one does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one determinism rule and how to check it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph rule statement.
	Doc string
	// Scope restricts the analyzer to packages whose import path matches
	// one of these suffixes (path == s or path ends with "/"+s). A nil
	// Scope means every package.
	Scope []string
	// IncludeTests extends the analyzer to _test.go files. Analyzers that
	// guard build results leave this false: tests are the dynamic
	// enforcement layer and may legitimately iterate maps or read clocks.
	IncludeTests bool
	// Run reports findings on one package via pass.Reportf.
	Run func(*Pass)
}

// A Diagnostic is one finding, position-resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the effective import path used for scope matching (test
	// variants report the path of the package under test).
	PkgPath string

	diags []Diagnostic
	notes map[string]map[int]string // filename -> line -> annotation reason
}

// AnnotationMarker is the suppression directive prefix, without "//".
const AnnotationMarker = "lint:nondet-ok"

// newPass builds a Pass and indexes //lint:nondet-ok annotations.
func newPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, path string) *Pass {
	p := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, PkgPath: path,
		notes: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+AnnotationMarker)
				if !ok {
					continue
				}
				if text != "" && text[0] != ' ' && text[0] != '\t' {
					continue // a different directive, e.g. lint:nondet-okay
				}
				pos := fset.Position(c.Pos())
				byLine := p.notes[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]string)
					p.notes[pos.Filename] = byLine
				}
				byLine[pos.Line] = strings.TrimSpace(text)
			}
		}
	}
	return p
}

// Reportf records a finding unless the offending line (or the line directly
// above it) carries a reasoned //lint:nondet-ok annotation. An annotation
// without a reason does not suppress; the finding is reported with a note.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	if byLine, ok := p.notes[at.Filename]; ok {
		for _, line := range []int{at.Line, at.Line - 1} {
			reason, ok := byLine[line]
			if !ok {
				continue
			}
			if reason != "" {
				return // suppressed, with a recorded reason
			}
			p.diags = append(p.diags, Diagnostic{Pos: at, Analyzer: p.Analyzer.Name,
				Message: fmt.Sprintf(format, args...) + " (the lint:nondet-ok annotation is missing its reason)"})
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{Pos: at, Analyzer: p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...)})
}

// DeterministicPackages are the packages bound by the bitwise-determinism
// contract: everything that computes, encodes, or orders build results.
var DeterministicPackages = []string{
	"internal/core",
	"internal/shard",
	"internal/wire",
	"internal/ctree",
	"internal/rctree",
	"internal/order",
	"internal/spatial",
	"internal/stitch",
	"internal/instio",
}

// Suite returns the dmevet analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, SeededRand, RawFloat, GoProtect}
}

// inScope reports whether pkgPath matches the scope suffix list.
func inScope(scope []string, pkgPath string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// RunUnits applies every analyzer to every unit it scopes to and returns
// the findings sorted by position. Analyzers with IncludeTests run on the
// test-augmented variant of a package when one exists (it contains the base
// files too) plus any external _test package; the rest run on base units
// only, so test files never reach them.
func RunUnits(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	hasTestVariant := make(map[string]bool)
	for _, u := range units {
		if u.Kind == UnitTest {
			hasTestVariant[u.Path] = true
		}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, u := range units {
			switch u.Kind {
			case UnitBase:
				if a.IncludeTests && hasTestVariant[u.Path] {
					continue // the test variant supersedes the base files
				}
			case UnitTest, UnitXTest:
				if !a.IncludeTests {
					continue
				}
			}
			if !inScope(a.Scope, u.Path) {
				continue
			}
			pass := newPass(a, u.Fset, u.Files, u.Pkg, u.Info, u.Path)
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for builtins, conversions, and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (receiver-less, so methods on package types never match).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
