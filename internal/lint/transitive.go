// The transitive analyzer lifts the allocfree and wallclock invariants
// across call boundaries using the summaries of summary.go.
//
// allocfree half: a function annotated //fedmp:allocfree that calls an
// unannotated callee whose summary allocates is a finding at the call site
// — previously that callee was silently unverified. Annotated callees are
// trusted (their own bodies are checked by the allocfree rule, and their
// own calls by this rule), so chains cut cleanly at each annotation.
//
// wallclock half: inside the wallclock scope, a call to a callee
// outside the scope whose summary reaches the wall clock is a finding.
// In-scope callees are skipped — their own sites and calls are checked
// where they are declared, so each leak is reported exactly once, at the
// scope boundary it escapes through. WallclockSanctioned packages
// (simclock) are the designed seam and never taint a summary.
package lint

import (
	"go/ast"
	"go/types"
)

const transitiveOKDirective = "//fedmp:transitive-ok"

var analyzerTransitive = &Analyzer{
	Name: "transitive",
	Doc: "summary-powered transitive modes for allocfree and wallclock: an " +
		"//fedmp:allocfree function calling an unannotated callee that " +
		"allocates, or a deterministic-layer function calling an " +
		"out-of-scope callee that reaches time.Now/Since/Sleep, is a " +
		"finding at the call site. " + transitiveOKDirective +
		" on the preceding or same line suppresses.",
	Run: runTransitive,
}

func runTransitive(pass *Pass) {
	g, sums := pass.Interprocedural()
	wallScope := pass.inScope("wallclock")
	fset := pass.Pkg.Fset
	for _, f := range pass.Pkg.Files {
		ok := pass.directiveLines(f, transitiveOKDirective)
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			n := g.NodeOf(fn)
			if n == nil || n.Pkg != pass.Pkg {
				continue // duplicate package load; the first copy reports
			}
			annotated := hasDirective(fd.Doc, allocFreeDirective)
			for _, e := range n.Out {
				if suppressed(fset, ok, e.Site) {
					continue
				}
				cs := sums.Of(e.Callee)
				key := funcKey(e.Callee.Fn)
				if annotated && !cs.AllocFreeAnnotated && cs.Allocates {
					pass.ReportHint(e.Site,
						"annotate the callee "+allocFreeDirective+" (and make it comply) or hoist the allocation out of the hot path",
						"%s: %s calls %s, which allocates (%s)",
						allocFreeDirective, fd.Name.Name, key, cs.AllocDesc())
				}
				if wallScope && cs.Wallclock &&
					!inScope(e.Callee.Pkg.Path, pass.Opts.Scope["wallclock"]) &&
					!inScope(e.Callee.Pkg.Path, pass.Opts.WallclockSanctioned) {
					pass.ReportHint(e.Site, denyWallclock.hint,
						"deterministic layer calls %s, which reaches the wall clock (%s)",
						key, cs.WallclockDesc())
				}
			}
		}
	}
}
