package lint

import (
	"go/ast"
	"go/types"
)

var analyzerRandSource = &Analyzer{
	Name: "randsource",
	Doc: "bans the global math/rand source: package-level rand functions and " +
		"wall-clock-seeded rand.New/rand.NewSource outside _test.go files; " +
		"every stochastic choice must flow from a threaded, explicitly " +
		"seeded *rand.Rand",
	Run: runRandSource,
}

// runRandSource is the global-source ban (a deny.go row) plus the check that
// no generator is seeded from the wall clock.
func runRandSource(pass *Pass) {
	denyRandSource.run(pass)
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := denyRandSource.selected(pass, sel); name == "New" || name == "NewSource" {
				// Seeding from the wall clock defeats the explicit seed just
				// as thoroughly as the global source does.
				if parent, ok := findEnclosingCall(f, sel); ok && callSeedsFromClock(info, parent) {
					pass.ReportHint(sel.Pos(), "derive the seed from cfg.Seed (offset per consumer) instead of time.Now",
						"rand.%s seeded from the wall clock: the run is no longer a function of its seed", name)
				}
			}
			return true
		})
	}
}

// findEnclosingCall returns the innermost call expression whose callee is
// the given selector.
func findEnclosingCall(f *ast.File, sel *ast.SelectorExpr) (*ast.CallExpr, bool) {
	var found *ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
			found = call
			return false
		}
		return true
	})
	return found, found != nil
}

// callSeedsFromClock reports whether any argument of the call mentions
// time.Now (the classic rand.NewSource(time.Now().UnixNano()) pattern).
func callSeedsFromClock(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		clock := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && pkgSel(info, sel, "time") == "Now" {
				clock = true
				return false
			}
			return true
		})
		if clock {
			return true
		}
	}
	return false
}
