// The wiretaint analyzer: integers decoded from untrusted wire frames must
// pass a bounds comparison before flowing — including through helpers —
// into make, unsafe.Slice, or index/slice expressions. Taint is a forward
// dataflow over the intraprocedural CFG; cross-function flow rides on the
// RetTaint/ParamSink summaries of summary.go, so a length that leaves
// binary.Uvarint, travels through getInt and reaches a make inside a resize
// helper is still one finding at the helper call site.
//
// Sources: binary.Uvarint/Varint results and binary.LittleEndian.UintNN.
// Sanitization: a relational comparison (<, >, <=, >=) mentioning the value
// in an if condition whose branch returns — in a function with an
// error-typed result — or panics. The error-result requirement is the
// heuristic's teeth: `if cap(s) >= n { return s[:n] }` in a plain resize
// helper is a reallocation test, not a validation, so the helper's
// parameter stays a sink and the caller must have checked n.
//
// Known gaps, accepted to keep false positives at zero: struct fields are
// not tracked (the codec readers keep offsets in fields; offsets are
// guarded locally), function literals are skipped, and only single-target
// static calls propagate taint.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// taintMask is a variable's taint: bit 63 marks wire-derived values, bits
// 0..61 mark dependence on the function's parameters.
type taintMask uint64

const wireBit taintMask = 1 << 63

func paramBit(i int) taintMask {
	if i < 0 || i >= 62 {
		return 0
	}
	return 1 << uint(i)
}

// taintFact maps local variables and parameters to their masks; absent
// means untainted.
type taintFact map[*types.Var]taintMask

func cloneTaint(f taintFact) taintFact {
	c := make(taintFact, len(f))
	for v, m := range f {
		c[v] = m
	}
	return c
}

func taintEqual(a, b taintFact) bool {
	if len(a) != len(b) {
		return false
	}
	for v, m := range a {
		if b[v] != m {
			return false
		}
	}
	return true
}

const wiretaintOKDirective = "//fedmp:wiretaint-ok"

const wiretaintHint = "guard the value with a cap comparison (maxElems, remaining bytes) in an if that returns an error, before it reaches the allocation"

var analyzerWireTaint = &Analyzer{
	Name: "wiretaint",
	Doc: "in the wire-decode scope (internal/transport/codec), integers " +
		"produced by binary.Uvarint/Varint/LittleEndian.UintNN must pass a " +
		"relational bounds check that returns an error (or panics) before " +
		"flowing into make, unsafe.Slice, or index/slice expressions — " +
		"including through helper calls, via per-function taint summaries. " +
		wiretaintOKDirective + " on the preceding or same line suppresses.",
	Run: runWireTaint,
}

func runWireTaint(pass *Pass) {
	if !pass.inScope("wiretaint") {
		return
	}
	_, sums := pass.Interprocedural()
	fset := pass.Pkg.Fset
	for _, f := range pass.Pkg.Files {
		ok := pass.directiveLines(f, wiretaintOKDirective)
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			n := sums.Graph().NodeOf(fn)
			if n == nil || n.Pkg != pass.Pkg {
				continue // duplicate package load; the first copy reports
			}
			runTaint(n, sums, func(pos token.Pos, sink string) {
				if suppressed(fset, ok, pos) {
					return
				}
				pass.ReportHint(pos, wiretaintHint,
					"wire-derived length reaches %s without a bounds check in %s", sink, fd.Name.Name)
			})
		}
	}
}

// taintSummarize recomputes a node's RetTaint/ParamSink from the current
// callee summaries; the SCC fixpoint in ComputeSummaries drives it.
func (s *Summaries) taintSummarize(n *FuncNode) bool {
	if n.Decl.Body == nil || !inScope(n.Pkg.Path, s.opts.Scope["wiretaint"]) {
		return false
	}
	ret, sinks := runTaint(n, s, nil)
	sum := s.m[n]
	changed := !masksEqual(sum.RetTaint, ret) || !stringSliceEqual(sum.ParamSink, sinks)
	sum.RetTaint, sum.ParamSink = ret, sinks
	return changed
}

func masksEqual(a, b []taintMask) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func stringSliceEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// taintRun bundles the per-function analysis state.
type taintRun struct {
	n        *FuncNode
	sums     *Summaries
	info     *types.Info
	sig      *types.Signature
	params   []*types.Var
	sanitize map[ast.Node][]*types.Var
}

// runTaint solves the taint dataflow for one function. report, when
// non-nil, is invoked once per wire-tainted sink (reporting mode); the
// returned slices are the function's result masks and parameter sinks
// (summary mode uses both, reporting mode ignores them).
func runTaint(n *FuncNode, sums *Summaries, report func(pos token.Pos, sink string)) ([]taintMask, []string) {
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil {
		return nil, nil
	}
	rt := &taintRun{n: n, sums: sums, info: n.Pkg.Info, sig: sig}
	for i := 0; i < sig.Params().Len(); i++ {
		rt.params = append(rt.params, sig.Params().At(i))
	}
	rt.buildSanitizers(n.Decl.Body)

	g := BuildCFG(n.Decl.Body, rt.info)
	before, _ := Solve(g, Problem[taintFact]{
		Dir:    Forward,
		Bottom: func() taintFact { return taintFact{} },
		Boundary: func() taintFact {
			f := taintFact{}
			for i, p := range rt.params {
				if b := paramBit(i); b != 0 {
					f[p] = b
				}
			}
			return f
		},
		Merge: func(dst, src taintFact) taintFact {
			for v, m := range src {
				dst[v] |= m
			}
			return dst
		},
		Transfer: func(b *Block, in taintFact) taintFact {
			out := cloneTaint(in)
			for _, nd := range b.Nodes {
				rt.step(nd, out, nil)
			}
			return out
		},
		Equal: taintEqual,
	})

	// Replay each block once on its solved entry fact to emit sinks and
	// collect return/parameter facts.
	ret := make([]taintMask, sig.Results().Len())
	paramSink := make([]string, len(rt.params))
	emit := func(pos token.Pos, mask taintMask, sink string) {
		if mask&wireBit != 0 && report != nil {
			report(pos, sink)
		}
		for i := range rt.params {
			if mask&paramBit(i) != 0 && paramSink[i] == "" {
				paramSink[i] = sink
			}
		}
	}
	for _, b := range g.Blocks {
		fact := cloneTaint(before[b])
		for _, nd := range b.Nodes {
			if r, ok := nd.(*ast.ReturnStmt); ok {
				rt.recordReturn(r, fact, ret)
			}
			rt.step(nd, fact, emit)
		}
	}
	return ret, paramSink
}

// step pushes the fact across one block node: sinks first (pre-state),
// then sanitization (the guard validates what survives it), then
// assignments.
func (rt *taintRun) step(node ast.Node, fact taintFact, emit func(token.Pos, taintMask, string)) {
	if emit != nil {
		rt.checkSinks(node, fact, emit)
	}
	if vars := rt.sanitize[node]; vars != nil {
		for _, v := range vars {
			delete(fact, v)
		}
	}
	rt.applyDefs(node, fact)
}

// recordReturn folds a return's result masks into ret.
func (rt *taintRun) recordReturn(r *ast.ReturnStmt, fact taintFact, ret []taintMask) {
	switch {
	case len(r.Results) == 0:
		// Bare return with named results.
		for i := 0; i < rt.sig.Results().Len() && i < len(ret); i++ {
			ret[i] |= fact[rt.sig.Results().At(i)]
		}
	case len(r.Results) == 1 && len(ret) > 1:
		if call, ok := ast.Unparen(r.Results[0]).(*ast.CallExpr); ok {
			for i, m := range rt.callResultMasks(call, fact) {
				if i < len(ret) {
					ret[i] |= m
				}
			}
		}
	default:
		for i, e := range r.Results {
			if i < len(ret) {
				ret[i] |= rt.exprMask(e, fact)
			}
		}
	}
}

// applyDefs updates variable masks for assignment-shaped nodes.
func (rt *taintRun) applyDefs(node ast.Node, fact taintFact) {
	set := func(lhs ast.Expr, mask taintMask, compound bool) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v := identVar(rt.info, id)
		if v == nil {
			return
		}
		if compound {
			mask |= fact[v]
		}
		if mask == 0 {
			delete(fact, v)
		} else {
			fact[v] = mask
		}
	}
	switch st := node.(type) {
	case *ast.AssignStmt:
		compound := st.Tok != token.ASSIGN && st.Tok != token.DEFINE
		if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
			masks := make([]taintMask, len(st.Lhs))
			if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
				copy(masks, rt.callResultMasks(call, fact))
			}
			for i, lhs := range st.Lhs {
				set(lhs, masks[i], false)
			}
			return
		}
		for i, lhs := range st.Lhs {
			var m taintMask
			if i < len(st.Rhs) {
				m = rt.exprMask(st.Rhs[i], fact)
			}
			set(lhs, m, compound)
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var m taintMask
				if i < len(vs.Values) {
					m = rt.exprMask(vs.Values[i], fact)
				}
				set(name, m, false)
			}
		}
	case *ast.RangeStmt:
		set(st.Key, 0, false)
		set(st.Value, 0, false)
	}
}

// exprMask computes an expression's taint under the current fact.
func (rt *taintRun) exprMask(e ast.Expr, fact taintFact) taintMask {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := rt.info.Uses[e].(*types.Var); ok && !v.IsField() {
			return fact[v]
		}
	case *ast.ParenExpr:
		return rt.exprMask(e.X, fact)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return 0
		}
		return rt.exprMask(e.X, fact)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ,
			token.EQL, token.NEQ, token.LAND, token.LOR:
			return 0 // boolean results carry no length taint
		}
		return rt.exprMask(e.X, fact) | rt.exprMask(e.Y, fact)
	case *ast.CallExpr:
		if ms := rt.callResultMasks(e, fact); len(ms) == 1 {
			return ms[0]
		}
	}
	return 0
}

// callResultMasks computes the per-result taint of one call: wire sources
// taint everything, conversions pass their operand through, and
// single-target static module calls substitute argument masks into the
// callee's RetTaint summary.
func (rt *taintRun) callResultMasks(call *ast.CallExpr, fact taintFact) []taintMask {
	if n := wireSourceResults(rt.info, call); n > 0 {
		out := make([]taintMask, n)
		for i := range out {
			out[i] = wireBit
		}
		return out
	}
	if builtinName(rt.info, call) != "" {
		return []taintMask{0} // len/cap/min/... results are trusted
	}
	sig := calleeSignature(rt.info, call)
	if sig == nil {
		// Type conversion: int(x), uint32(x) keep the operand's taint.
		if len(call.Args) == 1 {
			return []taintMask{rt.exprMask(call.Args[0], fact)}
		}
		return nil
	}
	if rt.sums != nil {
		if t, ok := rt.staticTarget(call); ok {
			if cs := rt.sums.m[t]; cs != nil && cs.RetTaint != nil {
				out := make([]taintMask, len(cs.RetTaint))
				for i, rm := range cs.RetTaint {
					var m taintMask
					if rm&wireBit != 0 {
						m |= wireBit
					}
					for p := 0; p < len(call.Args) && p < 62; p++ {
						if rm&paramBit(p) != 0 {
							m |= rt.exprMask(call.Args[p], fact)
						}
					}
					out[i] = m
				}
				return out
			}
		}
	}
	return make([]taintMask, sig.Results().Len())
}

// staticTarget resolves a call to its single static module target.
func (rt *taintRun) staticTarget(call *ast.CallExpr) (*FuncNode, bool) {
	targets := rt.sums.g.resolveCall(rt.n.Pkg, call)
	if len(targets) == 1 && targets[0].kind == EdgeStatic {
		return targets[0].node, true
	}
	return nil, false
}

// wireSourceResults reports how many results of the call are wire-derived:
// 2 for binary.Uvarint/Varint (value, length), 1 for the
// binary.LittleEndian/BigEndian UintNN readers, 0 otherwise.
func wireSourceResults(info *types.Info, call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return 0
	}
	switch fn.Name() {
	case "Uvarint", "Varint":
		return 2
	case "Uint16", "Uint32", "Uint64":
		return 1
	}
	return 0
}

// checkSinks walks one block node for sink expressions and emits the taint
// of their operands under the pre-state fact.
func (rt *taintRun) checkSinks(node ast.Node, fact taintFact, emit func(token.Pos, taintMask, string)) {
	root := node
	if r, ok := node.(*ast.RangeStmt); ok {
		root = r.X // the body lives in other blocks
	}
	emitIf := func(e ast.Expr, pos token.Pos, sink string) {
		if m := rt.exprMask(e, fact); m != 0 {
			emit(pos, m, sink)
		}
	}
	ast.Inspect(root, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if builtinName(rt.info, c) == "make" {
				for _, a := range c.Args[1:] {
					emitIf(a, c.Pos(), "make")
				}
				return true
			}
			if pkgSel(rt.info, ast.Unparen(c.Fun), "unsafe") == "Slice" && len(c.Args) == 2 {
				emitIf(c.Args[1], c.Pos(), "unsafe.Slice")
				return true
			}
			if rt.sums != nil {
				if t, ok := rt.staticTarget(c); ok {
					cs := rt.sums.m[t]
					for i, a := range c.Args {
						if cs != nil && i < len(cs.ParamSink) && cs.ParamSink[i] != "" {
							emitIf(a, c.Pos(), fmt.Sprintf("%s (inside %s, parameter %d)",
								cs.ParamSink[i], funcKey(t.Fn), i))
						}
					}
				}
			}
		case *ast.IndexExpr:
			if isSequence(rt.info.TypeOf(c.X)) {
				emitIf(c.Index, c.Pos(), "index expression")
			}
		case *ast.SliceExpr:
			for _, ie := range []ast.Expr{c.Low, c.High, c.Max} {
				if ie != nil {
					emitIf(ie, c.Pos(), "slice bound")
				}
			}
		}
		return true
	})
}

// isSequence reports whether t is a slice, array, pointer-to-array or
// string — the types whose indexing a hostile length can crash or misread.
func isSequence(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// buildSanitizers maps if conditions to the variables they validate: a
// relational comparison in a condition whose branch exits (returns, in a
// function with an error result, or panics) clears the compared variables'
// taint on the surviving path.
func (rt *taintRun) buildSanitizers(body *ast.BlockStmt) {
	rt.sanitize = make(map[ast.Node][]*types.Var)
	errResult := false
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < rt.sig.Results().Len(); i++ {
		if types.Identical(rt.sig.Results().At(i).Type(), errType) {
			errResult = true
		}
	}
	ast.Inspect(body, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		ifs, ok := c.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !rt.branchExits(ifs.Body, errResult) && (ifs.Else == nil || !rt.branchExits(ifs.Else, errResult)) {
			return true
		}
		if vars := rt.relationalVars(ifs.Cond); len(vars) > 0 {
			rt.sanitize[ifs.Cond] = vars
		}
		return true
	})
}

// branchExits reports whether the branch contains a return (when the
// function can signal an error) or a terminator call.
func (rt *taintRun) branchExits(s ast.Stmt, errResult bool) bool {
	exits := false
	ast.Inspect(s, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if errResult {
				exits = true
			}
		case *ast.CallExpr:
			if isTerminatorCall(rt.info, c) {
				exits = true
			}
		}
		return !exits
	})
	return exits
}

// relationalVars collects the variables mentioned under the relational
// comparisons (<, >, <=, >=) of a condition, crossing && and ||.
func (rt *taintRun) relationalVars(cond ast.Expr) []*types.Var {
	var out []*types.Var
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LAND, token.LOR:
			walk(be.X)
			walk(be.Y)
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			ast.Inspect(be, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if v, ok := rt.info.Uses[id].(*types.Var); ok && !v.IsField() {
						out = append(out, v)
					}
				}
				return true
			})
		}
	}
	walk(cond)
	return out
}
