// Package analysistest runs a granulint analyzer over a fixture
// package and checks its findings against expectations written in the
// fixture source, mirroring golang.org/x/tools/go/analysis/analysistest
// on the self-hosted framework.
//
// Fixtures live in testdata/src/<pkg>/ next to the test. Each expected
// finding is declared by a comment on the finding's line:
//
//	for k := range m { // want `ranges over a map`
//
// The comment holds one regexp per expected finding on that line, as
// backquoted or double-quoted Go strings. Fixtures are full,
// type-checked packages — they may import the standard library — and
// are invisible to go build/vet/test, so deliberately broken code in
// them never pollutes the repo's own lint run.
package analysistest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"granulock/internal/analysis"
	"granulock/internal/analysis/load"
)

// wantRE extracts the string literals of a want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one `// want` regexp, keyed to file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkg> (relative to the test's working
// directory), analyzes it with a, and fails t unless findings and
// `// want` expectations match one-to-one.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	loaded, err := load.DirPackage(".", dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants, err := parseWants(loaded)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Analyze(loaded, a)
	if err != nil {
		t.Fatalf("analyzing %s with %s: %v", dir, a.Name, err)
	}
	for _, d := range diags {
		pos := loaded.Fset.Position(d.Pos)
		file := filepath.Base(pos.Filename)
		if !claim(wants, file, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected finding: %s", file, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

// parseWants collects every `// want` expectation in the package.
func parseWants(pkg *load.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				es, err := parseWantComment(pkg, c)
				if err != nil {
					return nil, err
				}
				wants = append(wants, es...)
			}
		}
	}
	return wants, nil
}

// parseWantComment turns one `// want ...` comment into expectations
// anchored at the comment's own line.
func parseWantComment(pkg *load.Package, c *ast.Comment) ([]*expectation, error) {
	text, ok := strings.CutPrefix(c.Text, "// want ")
	if !ok {
		return nil, nil
	}
	pos := pkg.Fset.Position(c.Pos())
	file := filepath.Base(pos.Filename)
	lits := wantRE.FindAllString(text, -1)
	if len(lits) == 0 {
		return nil, fmt.Errorf("%s:%d: malformed want comment %q: no string literals", file, pos.Line, c.Text)
	}
	var wants []*expectation
	for _, lit := range lits {
		s, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: malformed want literal %s: %v", file, pos.Line, lit, err)
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", file, pos.Line, s, err)
		}
		wants = append(wants, &expectation{file: file, line: pos.Line, re: re})
	}
	return wants, nil
}

// claim marks the first unmatched expectation on file:line whose regexp
// matches msg; it reports whether one was found.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
