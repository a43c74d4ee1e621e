package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

const errDiscardOKDirective = "//fedmp:errdiscard-ok"

const errDiscardHint = "handle or log the error (the transport logf helpers work for best-effort " +
	"teardown), or mark a genuinely ignorable site with //fedmp:errdiscard-ok"

var analyzerErrDiscard = &Analyzer{
	Name: "errdiscard",
	Doc:  "no silently dropped errors in non-test code: no error result of a call assigned to _",
	Run:  runErrDiscard,
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// runErrDiscard reports `_ = f()` and `v, _ := f()` where the discarded
// result is error-typed — the call can fail and nothing will ever know. The
// loader already skips _test.go files, so test code is exempt by
// construction.
func runErrDiscard(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ok := pass.directiveLines(f, errDiscardOKDirective)
		reportf := func(pos token.Pos, format string, args ...any) {
			if !suppressed(pass.Pkg.Fset, ok, pos) {
				pass.ReportHint(pos, errDiscardHint, format, args...)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, isAssign := n.(*ast.AssignStmt); isAssign {
				checkBlankDiscard(as, info, reportf)
			}
			return true
		})
	}
}

// checkBlankDiscard flags error-typed call results assigned to the blank
// identifier. Plain `_ = err` silencing of an existing value is allowed —
// only fresh results of calls are findings.
func checkBlankDiscard(as *ast.AssignStmt, info *types.Info, reportf func(token.Pos, string, ...any)) {
	tuple := len(as.Lhs) > 1 && len(as.Rhs) == 1
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		var t types.Type
		fromCall := false
		if tuple {
			if tt, ok := info.TypeOf(as.Rhs[0]).(*types.Tuple); ok && i < tt.Len() {
				t = tt.At(i).Type()
			}
			_, fromCall = ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		} else if i < len(as.Rhs) {
			t = info.TypeOf(as.Rhs[i])
			_, fromCall = ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		}
		if fromCall && isErrorType(t) {
			reportf(lhs.Pos(), "error result discarded with _")
		}
	}
}

// isErrorType reports whether t is (or implements) the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType)
}
