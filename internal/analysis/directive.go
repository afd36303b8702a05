package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The granulint annotation grammar. Directives are line comments whose
// text starts exactly with "//granulint:" (no space, mirroring
// //go:build), followed by a verb and verb-specific arguments:
//
//	//granulint:hotpath
//	    On a function's doc comment: the function is a measured hot
//	    path; the hotpath analyzer forbids map iteration, defer and
//	    fmt/reflect calls inside it.
//	//granulint:wireboundary
//	    Anywhere in a package: the package serves a wire protocol; the
//	    errtaxonomy analyzer requires every error it constructs in
//	    function bodies to resolve to the typed taxonomy.
//	//granulint:ignore <analyzer> <reason>
//	    On (or directly above) a finding's line: suppress that
//	    analyzer's findings on the line. The reason is mandatory and
//	    must be non-empty — an unexplained suppression is itself a
//	    finding (directive analyzer).
const directivePrefix = "//granulint:"

// directiveVerbs is the set of known verbs.
var directiveVerbs = map[string]bool{
	"hotpath":      true,
	"wireboundary": true,
	"ignore":       true,
}

// directive is one parsed //granulint: comment.
type directive struct {
	pos  token.Pos
	verb string
	args string // raw text after the verb
}

// directives indexes a package's granulint comments.
type directives struct {
	all []directive
	// ignores maps "file:line" to the analyzer names suppressed there
	// (only well-formed ignore directives with a reason land here).
	ignores map[string][]string
}

// parseDirectiveComment splits a comment's text into directive verb and
// arguments; ok is false for non-directive comments.
func parseDirectiveComment(text string) (verb, args string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	verb, args, _ = strings.Cut(rest, " ")
	return verb, strings.TrimSpace(args), verb != ""
}

// parseDirectives collects every granulint directive in the files.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{ignores: make(map[string][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, args, ok := parseDirectiveComment(c.Text)
				if !ok {
					continue
				}
				d.all = append(d.all, directive{pos: c.Pos(), verb: verb, args: args})
				if verb != "ignore" {
					continue
				}
				analyzer, reason, _ := strings.Cut(args, " ")
				if analyzer == "" || strings.TrimSpace(reason) == "" {
					continue // malformed; the directive analyzer reports it
				}
				if analyzer == "directive" {
					// The validator itself cannot be suppressed, or an
					// ignore directive could silence the finding about
					// its own malformedness.
					continue
				}
				key := lineKey(fset, c.Pos())
				d.ignores[key] = append(d.ignores[key], analyzer)
			}
		}
	}
	return d
}

// lineKey is a file:line index key.
func lineKey(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return p.Filename + ":" + itoa(p.Line)
}

// suppressed reports whether a finding of the named analyzer at pos is
// covered by an ignore directive on the same line or the line above.
func (d *directives) suppressed(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, name := range d.ignores[p.Filename+":"+itoa(line)] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// itoa is a tiny strconv.Itoa for line numbers (avoids importing
// strconv in the framework's hot loop for no reason).
func itoa(n int) string {
	if n <= 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Directive is the annotation-grammar validator: every //granulint:
// comment must use a known verb, and ignore directives must name a
// registered analyzer and carry a non-empty justification. It keeps
// the suppression mechanism honest — the escape hatch exists, but it
// cannot be used silently.
var Directive = &Analyzer{
	Name: "directive",
	Doc: "validate granulint annotations: known verbs only, and " +
		"//granulint:ignore must name a registered analyzer and give a reason",
	Run: runDirective,
}

func runDirective(p *Pass) error {
	for _, d := range p.dirs.all {
		if !directiveVerbs[d.verb] {
			p.Reportf(d.pos, "unknown granulint directive %q (known: hotpath, wireboundary, ignore)", d.verb)
			continue
		}
		if d.verb != "ignore" {
			if d.args != "" {
				p.Reportf(d.pos, "granulint:%s takes no arguments (got %q)", d.verb, d.args)
			}
			continue
		}
		analyzer, reason, _ := strings.Cut(d.args, " ")
		if analyzer == "" {
			p.Reportf(d.pos, "granulint:ignore needs an analyzer name and a reason")
			continue
		}
		if _, ok := ByName(analyzer); !ok || analyzer == "directive" {
			p.Reportf(d.pos, "granulint:ignore names unknown analyzer %q", analyzer)
		}
		if strings.TrimSpace(reason) == "" {
			p.Reportf(d.pos, "granulint:ignore %s requires a non-empty reason: suppressions must be justified", analyzer)
		}
	}
	return nil
}
