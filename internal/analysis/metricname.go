package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
)

// MetricName enforces the observability layer's naming and
// registration discipline: every family registered on an obs Registry
// is named granulock_<subsystem>_<name> (lower-case, underscore
// segments), and registration is idempotent-by-construction — the name
// is a compile-time constant (so re-registration always hits the same
// family; obs deduplicates by name) and the call does not sit inside a
// loop (a loop that computes names would mint unbounded families and a
// loop over a constant re-registers pointlessly; either way hoist it).
var MetricName = &Analyzer{
	Name: "metricname",
	Doc: "require obs Registry family names to be constant strings " +
		"matching granulock_<subsystem>_<name>, registered outside loops",
	Run: runMetricName,
}

// metricNameRE is the family-name grammar: the granulock namespace, a
// subsystem segment, and at least one name segment.
var metricNameRE = regexp.MustCompile(`^granulock(_[a-z0-9]+){2,}$`)

// registerFns is the set of family-registering Registry methods.
var registerFns = map[string]bool{
	"NewCounter":      true,
	"NewCounterVec":   true,
	"NewCounterFunc":  true,
	"NewGauge":        true,
	"NewGaugeVec":     true,
	"NewGaugeFunc":    true,
	"NewHistogram":    true,
	"NewHistogramVec": true,
}

func runMetricName(p *Pass) error {
	for _, f := range p.Files {
		// Track loop nesting with an explicit node stack: ast.Inspect
		// signals a pop with a nil node.
		var stack []ast.Node
		loops := 0
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if isLoop(top) {
					loops--
				}
				return true
			}
			stack = append(stack, n)
			if isLoop(n) {
				loops++
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registerFns[sel.Sel.Name] {
				return true
			}
			tv, ok := p.TypesInfo.Types[sel.X]
			if !ok || !typeIs(tv.Type, "", "Registry") {
				return true
			}
			checkRegistration(p, call, sel.Sel.Name, loops > 0)
			return true
		})
	}
	return nil
}

func isLoop(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return true
	}
	return false
}

func checkRegistration(p *Pass, call *ast.CallExpr, fn string, inLoop bool) {
	if inLoop {
		p.Reportf(call.Pos(),
			"%s inside a loop; hoist the registration so it is idempotent-by-construction "+
				"(one call site, one family)", fn)
	}
	if len(call.Args) == 0 {
		return
	}
	tv, ok := p.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		p.Reportf(call.Pos(),
			"%s with a non-constant family name; metric names must be compile-time "+
				"constants so every registration is the same registration", fn)
		return
	}
	name := constant.StringVal(tv.Value)
	if !metricNameRE.MatchString(name) {
		p.Reportf(call.Pos(),
			"metric family %q does not match granulock_<subsystem>_<name> "+
				"(lower-case segments, e.g. granulock_lockmgr_grants_total)", name)
	}
}
