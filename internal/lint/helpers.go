package lint

import (
	"go/ast"
	"go/types"
	"strings"
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

// identVar resolves an identifier to the non-field variable it defines or
// mentions (`:=` and `var` targets live in Defs, `=` targets in Uses).
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// calleeSignature returns the signature of a call's callee, or nil when the
// call is a type conversion or a builtin.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
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

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// funcKey canonicalises a function object for the RequiredAllocFree list:
// "pkgpath.Func" for package functions, "pkgpath.Recv.Method" for methods
// (pointer receivers lose the star, so one spelling covers both).
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	key := normPath(fn.Pkg().Path()) + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// hasPathPrefix reports whether the import path is the prefix itself or a
// package below it. Build-variant suffixes ("pkg [pkg.test]") are stripped
// first, so the test variant of a scoped package stays in scope.
func hasPathPrefix(path, prefix string) bool {
	path = normPath(path)
	return path == prefix || (len(path) > len(prefix) &&
		path[:len(prefix)] == prefix && path[len(prefix)] == '/')
}

// normPath strips a build-variant suffix from an import path: when the test
// and non-test variants of a package both load ("p" and "p [p.test]"), the
// variants must agree on scope prefixes, inventory keys and call-graph
// funcKeys, so the same finding deduplicates instead of doubling.
func normPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}
