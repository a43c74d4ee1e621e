// Bottom-up per-function effect summaries over the call graph of
// callgraph.go. ComputeSummaries walks the SCCs callee-first, seeding each
// node with its local facts (allocation sites, wall-clock reads, go
// statements, infinite loops without a provable exit) and iterating each
// SCC to a fixpoint — the lattice is monotone booleans, so a few passes
// converge. The transitive analyzers (transitive.go, goroleak.go) consume
// the results.
//
// Soundness trade-offs, deliberately chosen and documented in DESIGN.md
// §7.2: functions annotated //fedmp:allocfree are trusted as clean (their
// own rule enforces the claim, so chains cut at the annotation boundary);
// wall-clock sites suppressed with //fedmp:wallclock-ok do not poison
// summaries; calls into packages outside the load (stdlib, export-data-only
// deps) contribute nothing; and dynamic calls through stored function
// values are invisible except for the conservative EdgeValueRef references
// the graph records.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Summary is the computed effect summary of one module function.
type Summary struct {
	// Allocates reports a reachable allocation site; AllocVia names the
	// immediate callee the effect arrived through ("" for a local site) and
	// AllocLeaf describes the root site ("make at decoder.go:42").
	Allocates bool
	AllocVia  string
	AllocLeaf string

	// Wallclock reports a reachable unsuppressed time.Now/Since/Sleep.
	Wallclock     bool
	WallclockVia  string
	WallclockLeaf string

	// Spawns reports a reachable go statement.
	Spawns bool

	// Forever reports a reachable infinite loop with no provable exit.
	// Loops behind a go statement are excluded: the spawned function is
	// checked at its own spawn sites.
	Forever     bool
	ForeverVia  string
	ForeverLeaf string

	// LoopsNoExit are the declaration's own unguarded infinite loops
	// (function literals excluded; a literal's loops are checked where the
	// literal is spawned).
	LoopsNoExit []token.Pos

	// AllocFreeAnnotated records the //fedmp:allocfree annotation.
	AllocFreeAnnotated bool

	// sanctionedWallclock marks the designed wall-clock seam (simclock):
	// the summary stays clean no matter what the body or callees do.
	sanctionedWallclock bool
}

// AllocDesc renders the allocation evidence chain.
func (s *Summary) AllocDesc() string {
	if s.AllocVia == "" {
		return s.AllocLeaf
	}
	return fmt.Sprintf("via %s: %s", s.AllocVia, s.AllocLeaf)
}

// WallclockDesc renders the wall-clock evidence chain.
func (s *Summary) WallclockDesc() string {
	if s.WallclockVia == "" {
		return s.WallclockLeaf
	}
	return fmt.Sprintf("via %s: %s", s.WallclockVia, s.WallclockLeaf)
}

// ForeverDesc renders the no-exit evidence chain.
func (s *Summary) ForeverDesc() string {
	if s.ForeverVia == "" {
		return s.ForeverLeaf
	}
	return fmt.Sprintf("via %s: %s", s.ForeverVia, s.ForeverLeaf)
}

// Summaries holds the computed summary of every graph node.
type Summaries struct {
	opts *Options
	m    map[*FuncNode]*Summary
}

// Of returns n's summary.
func (s *Summaries) Of(n *FuncNode) *Summary { return s.m[n] }

// ComputeSummaries seeds local facts and solves each SCC bottom-up.
func ComputeSummaries(g *CallGraph, opts *Options) *Summaries {
	if opts == nil {
		opts = DefaultOptions()
	}
	s := &Summaries{opts: opts, m: make(map[*FuncNode]*Summary, len(g.Nodes))}
	for _, n := range g.Nodes {
		s.m[n] = s.local(n)
	}
	for _, scc := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if s.propagate(n) {
					changed = true
				}
			}
		}
	}
	return s
}

// site renders a position as "file.go:line" for evidence strings.
func site(n *FuncNode, pos token.Pos) string {
	p := n.Pkg.Fset.Position(pos)
	return shortFile(p.Filename, p.Line)
}

// shortFile renders a base-name "file.go:line" reference.
func shortFile(filename string, line int) string {
	return fmt.Sprintf("%s:%d", filepath.Base(filename), line)
}

// inScope reports whether the node's package falls under any prefix.
func inScope(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if hasPathPrefix(path, p) {
			return true
		}
	}
	return false
}

// local computes a node's own facts before any propagation.
func (s *Summaries) local(n *FuncNode) *Summary {
	sum := &Summary{
		AllocFreeAnnotated:  hasDirective(n.Decl.Doc, allocFreeDirective),
		sanctionedWallclock: inScope(n.Pkg.Path, s.opts.WallclockSanctioned),
	}
	if n.Decl.Body == nil {
		return sum // assembly stub: clean by construction
	}
	if !sum.AllocFreeAnnotated {
		if pos, what := localAlloc(n); pos.IsValid() {
			sum.Allocates = true
			sum.AllocLeaf = what + " at " + site(n, pos)
		}
	}
	if !sum.sanctionedWallclock {
		if pos, what := localWallclock(n); pos.IsValid() {
			sum.Wallclock = true
			sum.WallclockLeaf = what + " at " + site(n, pos)
		}
	}
	ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
		if _, ok := c.(*ast.GoStmt); ok {
			sum.Spawns = true
		}
		return !sum.Spawns
	})
	sum.LoopsNoExit = loopsNoExit(n.Decl.Body, n.Pkg.Info, false)
	if len(sum.LoopsNoExit) > 0 {
		sum.Forever = true
		sum.ForeverLeaf = "infinite loop with no provable exit at " + site(n, sum.LoopsNoExit[0])
	}
	return sum
}

// propagate folds callee summaries into n; reports whether anything grew.
func (s *Summaries) propagate(n *FuncNode) bool {
	sum := s.m[n]
	changed := false
	for i := range n.Out {
		e := &n.Out[i]
		cs := s.m[e.Callee]
		key := funcKey(e.Callee.Fn)
		if !sum.Allocates && !sum.AllocFreeAnnotated && cs.Allocates {
			sum.Allocates = true
			sum.AllocVia = key
			sum.AllocLeaf = cs.AllocLeaf
			changed = true
		}
		if !sum.Wallclock && !sum.sanctionedWallclock && cs.Wallclock {
			sum.Wallclock = true
			sum.WallclockVia = key
			sum.WallclockLeaf = cs.WallclockLeaf
			changed = true
		}
		if !sum.Spawns && cs.Spawns {
			sum.Spawns = true
			changed = true
		}
		if !sum.Forever && !e.Go && cs.Forever {
			sum.Forever = true
			sum.ForeverVia = key
			sum.ForeverLeaf = cs.ForeverLeaf
			changed = true
		}
	}
	return changed
}

// localAlloc returns the first statically recognisable allocation site in
// the declaration body: the same site inventory the allocfree analyzer
// enforces, minus argument-boxing (too speculative for a summary that
// propagates through whole call chains). Panic arguments stay exempt.
func localAlloc(n *FuncNode) (token.Pos, string) {
	info := n.Pkg.Info
	best := token.NoPos
	why := ""
	found := func(pos token.Pos, what string) {
		if !best.IsValid() {
			best, why = pos, what
		}
	}
	var walk func(c ast.Node) bool
	walk = func(c ast.Node) bool {
		if best.IsValid() {
			return false
		}
		switch c := c.(type) {
		case *ast.GoStmt:
			found(c.Pos(), "go statement")
		case *ast.FuncLit:
			found(c.Pos(), "closure")
			return false
		case *ast.CompositeLit:
			if t := info.TypeOf(c); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					found(c.Pos(), "slice literal")
				case *types.Map:
					found(c.Pos(), "map literal")
				}
			}
		case *ast.UnaryExpr:
			if c.Op == token.AND {
				if _, ok := c.X.(*ast.CompositeLit); ok {
					found(c.Pos(), "&T{} literal")
				}
			}
		case *ast.CallExpr:
			switch builtinName(info, c) {
			case "panic":
				return false
			case "make":
				found(c.Pos(), "make")
			case "new":
				found(c.Pos(), "new")
			case "append":
				found(c.Pos(), "append")
			}
			if name := pkgSel(info, ast.Unparen(c.Fun), "fmt"); name != "" {
				found(c.Pos(), "fmt."+name)
			}
		}
		return true
	}
	ast.Inspect(n.Decl.Body, walk)
	return best, why
}

// localWallclock returns the first unsuppressed time.Now/Since/Sleep
// mention in the body, closures included (they run on the caller's watch as
// far as determinism is concerned).
func localWallclock(n *FuncNode) (token.Pos, string) {
	info := n.Pkg.Info
	fset := n.Pkg.Fset
	ok := directiveLines(fset, n.File, denyWallclock.ok)
	best := token.NoPos
	why := ""
	ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
		if best.IsValid() {
			return false
		}
		sel, isSel := c.(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		name := pkgSel(info, sel, "time")
		if denyWallclock.selectors[name] && !suppressed(fset, ok, sel.Pos()) {
			best, why = sel.Pos(), "time."+name
		}
		return true
	})
	return best, why
}

// loopsNoExit returns the positions of infinite `for` loops (nil condition)
// in body that lack a provable exit. intoLits controls whether function
// literals are descended into: false for declaration summaries (a literal's
// loops belong to its spawn site), true when checking a go'd literal body.
//
// A provable exit is a return or this-loop break that is (a) guarded by a
// condition mentioning an error-typed operand (the net.ErrClosed /
// recv-error idiom), or (b) inside a select communication clause (the
// closed-channel / ctx.Done idiom) — or a panic/os.Exit-style terminator
// anywhere in the loop. Everything else needs the //fedmp:goroleak-ok
// hatch.
func loopsNoExit(body *ast.BlockStmt, info *types.Info, intoLits bool) []token.Pos {
	var out []token.Pos
	var label string // pending label naming the next loop statement
	var walk func(c ast.Node) bool
	walk = func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return intoLits
		case *ast.LabeledStmt:
			label = c.Label.Name
			walk(c.Stmt)
			label = ""
			return false
		case *ast.ForStmt:
			name := label
			label = ""
			if c.Cond == nil && !loopHasExit(c, name, info) {
				out = append(out, c.Pos())
			}
		default:
			label = ""
		}
		return true
	}
	for _, st := range body.List {
		ast.Inspect(st, walk)
	}
	return out
}

// loopHasExit reports whether the infinite loop has a provable exit path.
func loopHasExit(loop *ast.ForStmt, label string, info *types.Info) bool {
	exit := false
	// guarded: under an error-checking if or a select comm clause.
	// depth: break targets between this statement and loop — an unlabeled
	// break with depth 0 leaves loop.
	var stmt func(s ast.Stmt, guarded bool, depth int)
	stmts := func(list []ast.Stmt, guarded bool, depth int) {
		for _, s := range list {
			stmt(s, guarded, depth)
		}
	}
	stmt = func(s ast.Stmt, guarded bool, depth int) {
		if exit || s == nil {
			return
		}
		switch s := s.(type) {
		case *ast.ReturnStmt:
			if guarded {
				exit = true
			}
		case *ast.BranchStmt:
			if s.Tok != token.BREAK || !guarded {
				return
			}
			if (s.Label == nil && depth == 0) || (s.Label != nil && s.Label.Name == label && label != "") {
				exit = true
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isTerminatorCall(info, call) {
				exit = true // a dying path still ends the goroutine
			}
		case *ast.BlockStmt:
			stmts(s.List, guarded, depth)
		case *ast.IfStmt:
			g := guarded || condMentionsError(s.Cond, info)
			stmt(s.Body, g, depth)
			stmt(s.Else, g, depth)
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				cc := cl.(*ast.CommClause)
				// Any comm clause may fire on a closed channel or ctx.Done;
				// a return/labeled-break inside one is a provable exit.
				stmts(cc.Body, true, depth+1)
			}
		case *ast.SwitchStmt:
			for _, cl := range s.Body.List {
				stmts(cl.(*ast.CaseClause).Body, guarded, depth+1)
			}
		case *ast.TypeSwitchStmt:
			for _, cl := range s.Body.List {
				stmts(cl.(*ast.CaseClause).Body, guarded, depth+1)
			}
		case *ast.ForStmt:
			stmt(s.Body, guarded, depth+1)
		case *ast.RangeStmt:
			stmt(s.Body, guarded, depth+1)
		case *ast.LabeledStmt:
			stmt(s.Stmt, guarded, depth)
		}
	}
	stmt(loop.Body, false, 0)
	return exit
}

// condMentionsError reports whether the condition mentions any error-typed
// operand — `err != nil`, `errors.Is(err, net.ErrClosed)` and friends.
func condMentionsError(cond ast.Expr, info *types.Info) bool {
	found := false
	errType := types.Universe.Lookup("error").Type()
	ast.Inspect(cond, func(c ast.Node) bool {
		e, ok := c.(ast.Expr)
		if !ok || found {
			return !found
		}
		if id, isIdent := e.(*ast.Ident); isIdent && id.Name == "nil" {
			return true // the nil side of `err != nil` proves nothing alone
		}
		if t := info.TypeOf(e); t != nil && types.Identical(t, errType) {
			found = true
		}
		return !found
	})
	return found
}

// noReturnFuncs are package-level functions after which control cannot
// continue, keyed by import path then name.
var noReturnFuncs = map[string]map[string]bool{
	"os":      {"Exit": true},
	"runtime": {"Goexit": true},
	"log": {
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
}

// isTerminatorCall reports whether the call never returns: the panic builtin
// or a recognised os.Exit/log.Fatal-style function.
func isTerminatorCall(info *types.Info, call *ast.CallExpr) bool {
	if builtinName(info, call) == "panic" {
		return true
	}
	for path, names := range noReturnFuncs {
		for name := range names {
			if pkgSel(info, call.Fun, path) == name {
				return true
			}
		}
	}
	return false
}
