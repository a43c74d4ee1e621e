// The goroleak analyzer: every go statement in the transport scope must
// spawn a goroutine with a provable exit path. A goroutine provably exits
// when every infinite loop reachable from it (its own body and, through the
// call-graph summaries, its callees) has a return or break guarded by an
// error check (the recv-error / net.ErrClosed idiom), sits in a select
// communication clause (closed channel, ctx.Done), or dies through a
// terminator. Bounded work — no infinite loop at all — is trivially fine.
package lint

import (
	"go/ast"
	"go/token"
)

const goroleakOKDirective = "//fedmp:goroleak-ok"

const goroleakHint = "bound the loop with an error-checked return (recv error, net.ErrClosed), a select on a close/ctx.Done channel, or suppress with " + goroleakOKDirective

var analyzerGoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "in the transport scope, every go statement must have a provable " +
		"exit path: infinite loops in the spawned function (or any callee, " +
		"via call-graph summaries) need an error-guarded return/break, a " +
		"select communication clause, or a terminator. " +
		goroleakOKDirective + " on the preceding or same line suppresses.",
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	if !pass.inScope("goroleak") {
		return
	}
	g, sums := pass.Interprocedural()
	fset := pass.Pkg.Fset
	for _, f := range pass.Pkg.Files {
		ok := pass.directiveLines(f, goroleakOKDirective)
		ast.Inspect(f, func(c ast.Node) bool {
			gs, isGo := c.(*ast.GoStmt)
			if !isGo || suppressed(fset, ok, gs.Pos()) {
				return true
			}
			report := func(format string, args ...any) {
				pass.ReportHint(gs.Pos(), goroleakHint, format, args...)
			}
			if lit, isLit := gs.Call.Fun.(*ast.FuncLit); isLit {
				checkSpawnedLit(pass.Pkg, lit, g, sums, report)
				return true
			}
			for _, t := range g.resolveCall(pass.Pkg, gs.Call) {
				cs := sums.Of(t.node)
				if cs.Forever {
					report("goroutine has no provable exit: %s %s",
						funcKey(t.node.Fn), cs.ForeverDesc())
				}
			}
			return true
		})
	}
}

// checkSpawnedLit analyzes a `go func(){...}()` literal: its own infinite
// loops, and the Forever summaries of every call it makes.
func checkSpawnedLit(pkg *Package, lit *ast.FuncLit, g *CallGraph, sums *Summaries, report func(string, ...any)) {
	pos := func(p token.Pos) string {
		pp := pkg.Fset.Position(p)
		return shortFile(pp.Filename, pp.Line)
	}
	for _, lp := range loopsNoExit(lit.Body, pkg.Info, true) {
		report("goroutine has no provable exit: infinite loop with no provable exit at %s", pos(lp))
	}
	ast.Inspect(lit.Body, func(c ast.Node) bool {
		call, isCall := c.(*ast.CallExpr)
		if !isCall {
			return true
		}
		for _, t := range g.resolveCall(pkg, call) {
			if cs := sums.Of(t.node); cs.Forever && !inGoPosition(lit.Body, call) {
				report("goroutine has no provable exit: calls %s, which never returns (%s)",
					funcKey(t.node.Fn), cs.ForeverDesc())
			}
		}
		return true
	})
}

// inGoPosition reports whether the call is itself the operand of a nested
// go statement (that spawn is checked on its own).
func inGoPosition(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(c ast.Node) bool {
		if gs, ok := c.(*ast.GoStmt); ok && gs.Call == call {
			found = true
		}
		return !found
	})
	return found
}
