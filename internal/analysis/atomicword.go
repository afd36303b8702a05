package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// AtomicWord guards the packed fast-path word state machine from the
// lock-free-fast-path PR: the 64-bit word in fastState may only move
// through FREE / FAST / SLOW via the transition helpers in fastpath.go,
// and even there only along the edges of the transition table. The
// word's whole correctness argument (benign ABA, map-state authority
// while SLOW) is a property of that table; a raw atomic on the word
// anywhere else silently voids it.
//
// The word layout the analyzer checks against (fastpath.go):
//
//	0                     FREE
//	1<<63                 SLOW  (fpSlowBit)
//	1<<61 [| 1<<60] | txn FAST  (fpFastBit, fpModeXBit)
//
// Allowed transitions: FREE→FAST and FAST→FAST via CAS (grant,
// sole-holder upgrade), FAST→FREE via CAS (fast release, batch-claim
// rollback), anything→SLOW via CAS (demotion), and Store(FREE)
// (promotion, under the table latch).
var AtomicWord = &Analyzer{
	Name: "atomicword",
	Doc: "forbid raw atomic operations on the packed fast-path word " +
		"outside the fastpath.go transition helpers, and check the " +
		"FREE/FAST/SLOW transition table inside them",
	Run: runAtomicWord,
}

// The canonical packed-word bits (mirrors fpSlowBit/fpFastBit in
// internal/lockmgr/fastpath.go; the analyzer re-declares them so it can
// classify constant operands in any package that adopts the layout).
const (
	awSlowBit = 1 << 63
	awFastBit = 1 << 61
)

// wordState classifies a packed-word operand expression.
type wordState int

const (
	wsUnknown wordState = iota // not statically classifiable (e.g. a loaded word)
	wsFree
	wsSlow
	wsFast
)

func (s wordState) String() string {
	switch s {
	case wsFree:
		return "FREE"
	case wsSlow:
		return "SLOW"
	case wsFast:
		return "FAST"
	default:
		return "unclassifiable"
	}
}

// wordFile is the only file allowed to touch the packed word directly.
const wordFile = "fastpath.go"

// wordOwner/wordField name the packed word: the `word` field of the
// fastState record.
const (
	wordOwner = "fastState"
	wordField = "word"
)

func runAtomicWord(p *Pass) error {
	for _, f := range p.Files {
		inHelpers := p.baseFilename(f.Pos()) == wordFile
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isPackedWord(p, sel.X) {
				return true
			}
			op := sel.Sel.Name
			if !inHelpers {
				p.Reportf(call.Pos(),
					"raw atomic %s on the packed fast-path word outside the %s transition helpers; "+
						"the word may only move through FREE/FAST/SLOW there",
					op, wordFile)
				return true
			}
			checkWordTransition(p, call, op)
			return true
		})
	}
	return nil
}

// isPackedWord reports whether e is a selector of the packed word
// field: fastState.word of type sync/atomic.Uint64.
func isPackedWord(p *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != wordField {
		return false
	}
	s, ok := p.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	if !typeIs(s.Obj().Type(), "sync/atomic", "Uint64") {
		return false
	}
	return typeIs(s.Recv(), "", wordOwner)
}

// checkWordTransition validates one atomic op inside the helper file
// against the transition table.
func checkWordTransition(p *Pass, call *ast.CallExpr, op string) {
	switch op {
	case "Load":
		return
	case "Store":
		if len(call.Args) == 1 && classifyWord(p, call.Args[0]) == wsFree {
			return // promotion back to FREE, legal only under the table latch
		}
		p.Reportf(call.Pos(),
			"packed-word Store with a non-FREE value; only promotion (Store(0) under the "+
				"table latch) may bypass CAS")
	case "CompareAndSwap":
		if len(call.Args) != 2 {
			return
		}
		old := classifyWord(p, call.Args[0])
		next := classifyWord(p, call.Args[1])
		switch {
		case next == wsFast && old == wsSlow:
			p.Reportf(call.Pos(),
				"packed-word CAS %s→FAST: FAST is entered from FREE (grant) or FAST (upgrade) only", old)
		case next == wsFree && old != wsFast:
			p.Reportf(call.Pos(),
				"packed-word CAS %s→FREE: FREE is entered by releasing a FAST holder; "+
					"promotion out of SLOW uses Store(0) under the table latch", old)
		case next == wsUnknown:
			p.Reportf(call.Pos(),
				"packed-word CAS to a state the analyzer cannot classify; build the new word "+
					"with fpPack or the fpSlow constant")
		}
	default:
		// Swap, Add, And, Or, ...: arithmetic on the word can fabricate
		// states outside the table.
		p.Reportf(call.Pos(),
			"packed-word %s: the word only moves by Load, transition-table CAS, or promotion Store", op)
	}
}

// classifyWord classifies an operand expression as a word state.
func classifyWord(p *Pass, e ast.Expr) wordState {
	if tv, ok := p.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		v, ok := constant.Uint64Val(tv.Value)
		if !ok {
			return wsUnknown
		}
		switch {
		case v == 0:
			return wsFree
		case v&awSlowBit != 0:
			return wsSlow
		case v&awFastBit != 0:
			return wsFast
		default:
			return wsUnknown
		}
	}
	if call, ok := e.(*ast.CallExpr); ok {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "fpPack" {
				return wsFast
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "fpPack" {
				return wsFast
			}
		}
	}
	return wsUnknown
}
