package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPath guards the measured zero-allocation hot paths (the lock
// table's claim/release cycle pinned at zero allocs in
// BENCH_lockmgr.json, the v2 frame codec, the discrete-event loop). Functions annotated
// //granulint:hotpath may not:
//
//   - range over a map — Go's randomized map iteration allocates its
//     iterator state and was the single largest cost profiling found on
//     the claim/release cycle before the hold-set vector rewrite;
//   - use defer — a defer frame per call on a ~128ns path is real money
//     and hides the unlock ordering;
//   - call into fmt or reflect — both allocate and both appeared in
//     past regressions via "harmless" error/diagnostic paths — or the
//     sort.Slice family, which is reflect behind a friendlier name
//     (slices.Sort and slices.SortFunc are the typed replacements);
//   - call make, start a goroutine, or build a function literal that
//     captures a variable of the enclosing function — each is a heap
//     object per call on a path whose budget is none (the parked-claim
//     records exist so that blocking costs no waiter, channel or
//     closure); buffers are retained by their owner and callbacks are
//     bound once, when the owner is made.
//
// The check is intraprocedural and includes function literals declared
// inside the annotated body (they run on the same path). Cold error
// branches that genuinely need one of these get a //granulint:ignore
// with a justification.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "forbid map iteration, defer, fmt/reflect/sort.Slice calls, make, go " +
		"statements and capturing closures inside functions annotated //granulint:hotpath",
	Run: runHotPath,
}

func runHotPath(p *Pass) error {
	p.enclosingFuncs(func(_ *ast.File, fd *ast.FuncDecl) {
		if !p.FuncHasDirective(fd, "hotpath") {
			return
		}
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := p.TypesInfo.Types[v.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						p.Reportf(v.Pos(),
							"hotpath function %s ranges over a map (randomized iteration "+
								"setup allocates); iterate a slice or index instead", name)
					}
				}
			case *ast.DeferStmt:
				p.Reportf(v.Pos(), "hotpath function %s uses defer; unlock/cleanup explicitly on this path", name)
			case *ast.GoStmt:
				p.Reportf(v.Pos(), "hotpath function %s starts a goroutine; hand the work to one that exists", name)
			case *ast.FuncLit:
				if captured := capturedVar(p.TypesInfo, fd, v); captured != "" {
					p.Reportf(v.Pos(),
						"hotpath function %s builds a closure over %s (one heap object per call); "+
							"bind the callback once, where its owner is made", name, captured)
				}
			case *ast.CallExpr:
				if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" {
					if _, builtin := p.TypesInfo.Uses[id].(*types.Builtin); builtin {
						p.Reportf(v.Pos(), "hotpath function %s calls make; reuse a buffer its owner retains", name)
					}
				}
				if pkg, fn, ok := calleePkgFunc(p.TypesInfo, v); ok {
					switch {
					case pkg == "fmt" || pkg == "reflect":
						p.Reportf(v.Pos(),
							"hotpath function %s calls %s.%s; fmt/reflect allocate — use a "+
								"preallocated typed error or move the call off the hot path",
							name, pkg, fn)
					case pkg == "sort" && strings.HasPrefix(fn, "Slice"):
						p.Reportf(v.Pos(),
							"hotpath function %s calls sort.%s, which swaps through reflect; "+
								"use slices.Sort or slices.SortFunc", name, fn)
					}
				}
			}
			return true
		})
	})
	return nil
}

// capturedVar names a variable of fd — a parameter, result, receiver or
// local — that lit refers to from outside its own body, or returns ""
// when lit captures nothing (such a literal is a static function value
// and allocates nothing).
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || name != "" {
			return name == ""
		}
		v, isVar := info.Uses[id].(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		if pos := v.Pos(); pos >= fd.Pos() && pos < fd.End() && (pos < lit.Pos() || pos >= lit.End()) {
			name = id.Name
		}
		return true
	})
	return name
}
