// Package analysis is granulint: a family of static analyzers that
// mechanize the concurrency invariants this codebase otherwise enforces
// only by convention and by tests that must happen to hit the bad
// interleaving. The framework mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, diagnostics) but is self-hosted on the
// standard library so the suite builds and runs fully offline; see
// docs/ANALYSIS.md for the catalogue of analyzers, the invariant each
// one encodes, and the annotation grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"granulock/internal/analysis/load"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in findings, -run filters and
	// //granulint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	dirs  *directives
	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FuncHasDirective reports whether fd's doc comment carries the given
// granulint directive verb (e.g. "hotpath").
func (p *Pass) FuncHasDirective(fd *ast.FuncDecl, verb string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if v, _, ok := parseDirectiveComment(c.Text); ok && v == verb {
			return true
		}
	}
	return false
}

// PkgHasDirective reports whether any file of the package carries the
// given directive verb at any comment position (package-scoped verbs,
// e.g. "wireboundary").
func (p *Pass) PkgHasDirective(verb string) bool {
	for _, d := range p.dirs.all {
		if d.verb == verb {
			return true
		}
	}
	return false
}

// All is the granulint analyzer registry: the three invariant analyzers
// plus the directive validator that keeps the annotation grammar
// itself well-formed.
// Populated in init to break the declaration cycle through the
// directive analyzer, whose validator consults the registry.
var All []*Analyzer

func init() {
	All = []*Analyzer{
		HotPath,
		ErrTaxonomy,
		MetricName,
		Directive,
	}
}

// ByName returns the registered analyzer with the given name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Analyze runs one analyzer over one loaded package and returns its
// findings with //granulint:ignore suppressions already applied: a
// finding is suppressed when a well-formed ignore directive naming the
// analyzer sits on the same line or on the line directly above.
func Analyze(pkg *load.Package, a *Analyzer) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		dirs:      parseDirectives(pkg.Fset, pkg.Files),
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	kept := pass.diags[:0]
	for _, d := range pass.diags {
		if !pass.dirs.suppressed(pkg.Fset, a.Name, d.Pos) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// calleePkgFunc resolves a call of the form pkg.Func where pkg is an
// imported package name, returning the package path and function name.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, fn string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// namedType unwraps pointers and returns the named type of t, if any.
func namedType(t types.Type) (*types.Named, bool) {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v, true
		default:
			return nil, false
		}
	}
}

// typeIs reports whether t (possibly behind pointers) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n, ok := namedType(t)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name {
		return false
	}
	if pkgPath == "" {
		return true
	}
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// enclosingFuncs yields every function declaration with a body, across
// all files of the pass.
func (p *Pass) enclosingFuncs(fn func(*ast.File, *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	}
}
