// Interprocedural call graph over one load's packages. BuildCallGraph
// indexes every module function declaration, resolves static calls,
// qualified cross-package calls, method values and interface dispatch
// (over-approximated via go/types method-set matching to every module
// implementation), and condenses the result into strongly connected
// components emitted callee-first — the order the bottom-up summary solver
// in summary.go consumes. Function literals are not nodes of their own:
// their bodies, and therefore their calls, belong to the enclosing
// declaration.
//
// Cross-package references resolve through funcKey strings rather than
// go/types object identity: a package type-checked from source and the same
// package seen through compiler export data are distinct object universes,
// but they agree on "pkgpath.Recv.Method" spellings.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies how a call-graph edge was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a named function or a method on a
	// concrete receiver.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is an over-approximated edge from an interface method
	// call to one possible module implementation.
	EdgeInterface
	// EdgeValueRef marks a function referenced as a value (method value,
	// function stored or passed as an argument). The reference may be
	// invoked later, so effect summaries flow across it conservatively.
	EdgeValueRef
)

// Edge is one resolved call or reference from a function to another module
// function.
type Edge struct {
	// Site is the call or reference position in the caller.
	Site token.Pos
	// Callee is the target node.
	Callee *FuncNode
	// Kind records how the edge was resolved.
	Kind EdgeKind
	// Go is set when the call is the operand of a go statement.
	Go bool
}

// FuncNode is one module function declaration in the call graph.
type FuncNode struct {
	// Fn is the type-checker object of the declaration.
	Fn *types.Func
	// Decl is the syntax; Body is nil for assembly stubs.
	Decl *ast.FuncDecl
	// File holds Decl (needed for directive-line lookups).
	File *ast.File
	// Pkg is the declaring package.
	Pkg *Package
	// Out lists the resolved outgoing edges in source order.
	Out []Edge
	// SCC indexes the node's strongly connected component in
	// CallGraph.SCCs.
	SCC int
}

// CallGraph is the interprocedural call graph of one package set.
type CallGraph struct {
	// Nodes lists every module function in deterministic (package, file,
	// declaration) order.
	Nodes []*FuncNode
	// SCCs lists the strongly connected components callee-first: every
	// edge leaving SCCs[i] lands inside SCCs[i] or in some SCCs[j] with
	// j < i, so a bottom-up pass can walk the slice front to back.
	SCCs [][]*FuncNode

	byKey   map[string]*FuncNode
	pathSet map[string]bool
}

// NodeOf returns the graph node declaring fn, or nil when fn is not a
// module function of this graph. Lookup is by funcKey, so an object seen
// through export data resolves to the source-checked declaration.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return g.byKey[funcKey(fn)]
}

// BuildCallGraph indexes the functions of pkgs and resolves their edges.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byKey:   make(map[string]*FuncNode),
		pathSet: make(map[string]bool, len(pkgs)),
	}
	for _, pkg := range pkgs {
		g.pathSet[normPath(pkg.Path)] = true
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				if g.byKey[key] != nil {
					// Duplicate package load (overlapping patterns, test
					// variants) or a repeated init: the first declaration
					// wins, and later lookups land on it.
					continue
				}
				n := &FuncNode{Fn: fn, Decl: fd, File: f, Pkg: pkg}
				g.byKey[key] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Decl.Body != nil {
			g.edges(n)
		}
	}
	g.condense()
	return g
}

// edges resolves every call and function-value reference in n's body,
// including the bodies of nested function literals.
func (g *CallGraph) edges(n *FuncNode) {
	info := n.Pkg.Info
	// First pass: note which identifiers are consumed as call callees and
	// which calls are spawned by go statements, so the second pass can tell
	// a call from a value reference.
	calleeIdent := make(map[*ast.Ident]bool)
	goCall := make(map[*ast.CallExpr]bool)
	selSel := make(map[*ast.Ident]bool)
	ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.GoStmt:
			goCall[c.Call] = true
		case *ast.SelectorExpr:
			selSel[c.Sel] = true
		case *ast.CallExpr:
			switch fun := ast.Unparen(c.Fun).(type) {
			case *ast.Ident:
				calleeIdent[fun] = true
			case *ast.SelectorExpr:
				calleeIdent[fun.Sel] = true
			}
		}
		return true
	})
	ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.CallExpr:
			for _, t := range g.resolveCall(n.Pkg, c) {
				n.Out = append(n.Out, Edge{Site: c.Pos(), Callee: t.node, Kind: t.kind, Go: goCall[c]})
			}
		case *ast.SelectorExpr:
			if calleeIdent[c.Sel] {
				return true
			}
			for _, t := range g.resolveSelector(n.Pkg, c, EdgeValueRef) {
				n.Out = append(n.Out, Edge{Site: c.Pos(), Callee: t.node, Kind: t.kind})
			}
		case *ast.Ident:
			// A bare function identifier outside call position is a value
			// reference; selector Sels were handled by their selector.
			if calleeIdent[c] || selSel[c] {
				return true
			}
			if fn, ok := info.Uses[c].(*types.Func); ok {
				if t := g.NodeOf(fn); t != nil {
					n.Out = append(n.Out, Edge{Site: c.Pos(), Callee: t, Kind: EdgeValueRef})
				}
			}
		}
		return true
	})
}

// resolvedTarget is one resolution result of a call or reference.
type resolvedTarget struct {
	node *FuncNode
	kind EdgeKind
}

// resolveCall resolves a call expression to its module targets: none for
// builtins, conversions, stdlib calls and dynamic function values; one for
// static calls; possibly several for interface dispatch.
func (g *CallGraph) resolveCall(pkg *Package, call *ast.CallExpr) []resolvedTarget {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if t := g.NodeOf(fn); t != nil {
				return []resolvedTarget{{t, EdgeStatic}}
			}
		}
	case *ast.SelectorExpr:
		return g.resolveSelector(pkg, fun, EdgeStatic)
	}
	return nil
}

// resolveSelector resolves otherpkg.F, x.M on a concrete receiver, and i.M
// interface dispatch. kind is the edge kind for a single concrete target;
// interface dispatch always yields EdgeInterface.
func (g *CallGraph) resolveSelector(pkg *Package, sel *ast.SelectorExpr, kind EdgeKind) []resolvedTarget {
	info := pkg.Info
	if s := info.Selections[sel]; s != nil {
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return nil // field selection
		}
		if isInterface(s.Recv()) {
			return g.dispatch(s.Recv(), fn)
		}
		if t := g.NodeOf(fn); t != nil {
			return []resolvedTarget{{t, kind}}
		}
		return nil
	}
	// No selection entry: a qualified identifier otherpkg.F.
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		if t := g.NodeOf(fn); t != nil {
			return []resolvedTarget{{t, kind}}
		}
	}
	return nil
}

// dispatch over-approximates an interface method call: every module method
// whose receiver satisfies the interface and whose name matches is a
// possible target. Only module-defined interfaces dispatch — widening a
// stdlib interface (io.Writer, error) would connect every same-named method
// in the repo through edges most of which are impossible, drowning the
// summaries. Method-set matching compares signatures rendered with
// package-path qualifiers, so an interface seen through export data still
// matches an implementation type-checked from source.
func (g *CallGraph) dispatch(recv types.Type, abstract *types.Func) []resolvedTarget {
	iface, _ := recv.Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	named, _ := types.Unalias(recv).(*types.Named)
	if named == nil || named.Obj().Pkg() == nil || !g.pathSet[normPath(named.Obj().Pkg().Path())] {
		return nil
	}
	var out []resolvedTarget
	for _, n := range g.Nodes {
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || n.Fn.Name() != abstract.Name() {
			continue
		}
		rt := sig.Recv().Type()
		if _, isPtr := rt.(*types.Pointer); !isPtr {
			// The pointer method set is the superset; using it keeps the
			// check a pure over-approximation.
			rt = types.NewPointer(rt)
		}
		if implementsLoose(rt, iface) {
			out = append(out, resolvedTarget{n, EdgeInterface})
		}
	}
	return out
}

// implementsLoose reports whether rt's method set covers every method of
// iface, comparing each signature's parameter and result types by their
// package-path-qualified rendering rather than object identity — robust
// across the source/export-data universe split of one load.
func implementsLoose(rt types.Type, iface *types.Interface) bool {
	ms := types.NewMethodSet(rt)
	for i := 0; i < iface.NumMethods(); i++ {
		am := iface.Method(i)
		found := false
		for j := 0; j < ms.Len(); j++ {
			m := ms.At(j).Obj()
			if m.Name() == am.Name() && sigString(m.Type()) == sigString(am.Type()) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sigString renders a type with import-path qualifiers for
// universe-independent comparison. Parameter and result names are not part
// of a signature's identity and are left out — an implementation is free to
// rename a parameter or blank it — here and in a parameter that is itself a
// function.
func sigString(t types.Type) string {
	return types.TypeString(unnamed(t), func(p *types.Package) string { return normPath(p.Path()) })
}

// unnamed returns a signature with every parameter and result name dropped;
// any other type is returned as it is.
func unnamed(t types.Type) types.Type {
	sig, ok := t.(*types.Signature)
	if !ok {
		return t
	}
	strip := func(tup *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, tup.Len())
		for i := range vars {
			vars[i] = types.NewVar(token.NoPos, nil, "", unnamed(tup.At(i).Type()))
		}
		return types.NewTuple(vars...)
	}
	return types.NewSignatureType(nil, nil, nil, strip(sig.Params()), strip(sig.Results()), sig.Variadic())
}

// condense runs Tarjan's algorithm over the nodes in index order, filling
// SCCs (emission order is callee-first) and each node's SCC index.
func (g *CallGraph) condense() {
	index := make(map[*FuncNode]int, len(g.Nodes))
	low := make(map[*FuncNode]int, len(g.Nodes))
	onStack := make(map[*FuncNode]bool, len(g.Nodes))
	var stack []*FuncNode
	next := 0
	var strong func(n *FuncNode)
	strong = func(n *FuncNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.Out {
			m := e.Callee
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				m.SCC = len(g.SCCs)
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			g.SCCs = append(g.SCCs, scc)
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
}
