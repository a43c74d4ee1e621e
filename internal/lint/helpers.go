package lint

import (
	"go/ast"
	"go/types"
)

// pkgSel matches expr against a qualified identifier pkg.Name where pkg is
// an import of the given path, returning the selected name. An empty string
// means no match. Works for both call positions (rand.Intn(...)) and value
// positions (f := rand.Intn).
func pkgSel(info *types.Info, expr ast.Expr, path string) string {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != path {
		return ""
	}
	return sel.Sel.Name
}

// builtinName returns the name of the builtin a call invokes ("make",
// "append", ...) or "" for ordinary calls.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
