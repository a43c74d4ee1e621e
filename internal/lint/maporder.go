package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

const mapOrderOKDirective = "//fedmp:maporder-ok"

const mapOrderHint = "collect the keys into a slice, sort it, and range over the slice; " +
	"or mark a provably order-insensitive loop with //fedmp:maporder-ok"

var analyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc: "in the deterministic layers, ranging over a map must not feed ordered output " +
		"(slice append, emission, table rows) unless the appended slice is sorted afterwards",
	Run: runMapOrder,
}

// emissionMethods are method names that commit values in call order: table
// rows, writer output, wire encoding.
var emissionMethods = map[string]bool{
	"AddRow":      true,
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteCSV":    true,
	"Render":      true,
	"Encode":      true,
}

// runMapOrder flags `for ... := range m` over a map, inside the maporder
// scope, whose body reaches ordered output: a slice append (unless that
// slice is later passed to sort/slices), an fmt.Print/Fprint emission, an
// emission method call, or a channel send. Go randomises map iteration order
// per run, so any of these makes same-seed runs diverge.
func runMapOrder(pass *Pass) {
	if !pass.inScope("maporder") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ok := pass.directiveLines(f, mapOrderOKDirective)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, okr := n.(*ast.RangeStmt)
			if !okr {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if suppressed(pass.Pkg.Fset, ok, rs.Pos()) {
				return true
			}
			if sink := findOrderSink(rs, f, info); sink != "" {
				pass.ReportHint(rs.Pos(), mapOrderHint,
					"map iteration order reaches ordered output (%s); sort the keys first", sink)
			}
			return true
		})
	}
}

// findOrderSink scans a range body for an order-sensitive sink and names it,
// or returns "" when the loop is order-insensitive (pure reduction, or every
// appended slice is sorted after the loop).
func findOrderSink(rs *ast.RangeStmt, file *ast.File, info *types.Info) string {
	sink := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
		case *ast.CallExpr:
			if builtinName(info, n) == "append" {
				if !sortedAfter(appendTarget(n, info), rs, file, info) {
					sink = "append"
				}
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if name := pkgSel(info, n.Fun, "fmt"); name != "" &&
					(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
					sink = "fmt." + name
					return true
				}
				if emissionMethods[sel.Sel.Name] && info.Selections[sel] != nil {
					sink = sel.Sel.Name + " call"
				}
			}
		}
		return true
	})
	return sink
}

// appendTarget resolves the slice variable an in-loop append grows, from the
// first append argument (`out = append(out, ...)`).
func appendTarget(call *ast.CallExpr, info *types.Info) *types.Var {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// sortedAfter reports whether v is passed to a sort/slices call positioned
// after the range loop — the sanctioned collect-then-sort idiom, where the
// nondeterministic append order is erased before anything observes it.
func sortedAfter(v *types.Var, rs *ast.RangeStmt, file *ast.File, info *types.Info) bool {
	if v == nil {
		return false
	}
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if pkgSel(info, call.Fun, "sort") == "" && pkgSel(info, call.Fun, "slices") == "" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok {
					if u, _ := info.Uses[id].(*types.Var); u == v {
						found = true
					}
				}
				return !found
			})
		}
		return true
	})
	return found
}
