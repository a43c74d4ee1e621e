// Package lint is fedmp's from-scratch static-analysis framework. It loads
// every package of the module with go/parser and go/types (resolving imports
// from compiler export data — no external dependencies) and runs a pipeline
// of repo-specific analyzers that enforce the invariants the paper's
// reproducibility story rests on:
//
//	randsource  — all randomness flows from an explicitly seeded *rand.Rand
//	wallclock   — the deterministic simulation layers never read the wall clock
//	floateq     — no exact equality between computed floating-point values
//	synccopy    — sync primitives and pooled scratch state never copied by value
//	allocfree   — annotated hot-path functions contain no allocation sites
//	maporder    — map iteration never feeds ordered output in deterministic layers
//	gobdeny     — the wire layers never import encoding/gob (the binary codec owns framing)
//	errdiscard  — no error result of a call discarded with _
//	seedflow    — fresh rand.New/NewSource results flow onward, not stay confined
//	atomicwrite — durability layers write state files only via the fsync+rename helper
//	goroleak    — transport go statements have a provable exit path
//	transitive  — allocfree and wallclock hold across call boundaries, via summaries
//
// Every rule but two reads one function's syntax and types. goroleak and
// transitive are interprocedural: they consume the cross-package call graph
// of callgraph.go and the bottom-up SCC effect summaries of summary.go.
// Lock balance and dead error stores are left to tests (DESIGN.md §7.1).
// wallclock, gobdeny, atomicwrite and randsource's global-source half are
// rows of the one scope-deny table in deny.go. Findings are reported as "file:line: [rule]
// message"; cmd/fedmp-lint exits nonzero on any finding, and `make check`
// runs it between vet and build.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the analyzer that produced it.
	Rule string
	// Message states the violation.
	Message string
	// Hint, when non-empty, suggests the rewrite (-hints mode).
	Hint string
}

// String renders the canonical "file:line: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Options configures a lint run.
type Options struct {
	// Scope maps a rule name to the import-path prefixes the rule applies
	// in (a package is in scope when its path is a prefix or below one). A
	// rule with no entry runs everywhere. The defaults: wallclock and
	// maporder cover the deterministic simulation layers, whose results must
	// be bit-identical across same-seed runs (internal/transport owns real
	// deadlines and heartbeats, and its maps order network events that carry
	// their own ids, so it is exempt from both); gobdeny and goroleak cover
	// the transport, atomicwrite the checkpoint layer.
	Scope map[string][]string
	// RequiredAllocFree lists functions that must carry the
	// //fedmp:allocfree annotation, in funcKey form: "pkgpath.Func" or
	// "pkgpath.Recv.Method" (pointer receivers without the star). It pins
	// the PR 2 hot paths: deleting an annotation fails the build gate
	// instead of silently dropping the check.
	RequiredAllocFree []string
	// WallclockSanctioned lists the import-path prefixes that form the
	// designed wall-clock seam (simclock): their summaries never report
	// Wallclock, so threading a clock through them stays legal while any
	// other escape from the deterministic layers is a transitive finding.
	WallclockSanctioned []string
	// IgnoreHatches disables every //fedmp:<rule>-ok line directive for one
	// run. The stale-hatch detector diffs a normal run against an
	// IgnoreHatches run: a hatch no finding lands on is rot. Doc-comment
	// directives that are requirements rather than hatches
	// (//fedmp:allocfree, //fedmp:atomicwrite-helper) are unaffected, as are
	// the summary computations (a suppressed site must still not poison its
	// callers' summaries).
	IgnoreHatches bool
}

// DefaultOptions returns the repo's production configuration.
func DefaultOptions() *Options {
	return &Options{
		Scope: map[string][]string{
			"wallclock": {
				"fedmp/internal/core",
				"fedmp/internal/cluster",
				"fedmp/internal/bandit",
				"fedmp/internal/experiment",
				"fedmp/internal/simsched",
			},
			"maporder": {
				"fedmp/internal/core",
				"fedmp/internal/cluster",
				"fedmp/internal/bandit",
				"fedmp/internal/experiment",
				"fedmp/internal/metrics",
				"fedmp/internal/simsched",
			},
			"gobdeny":     {"fedmp/internal/transport"},
			"atomicwrite": {"fedmp/internal/transport/checkpoint"},
			"goroleak":    {"fedmp/internal/transport"},
		},
		RequiredAllocFree: []string{
			"fedmp/internal/tensor.packA",
			"fedmp/internal/tensor.packB",
			"fedmp/internal/tensor.microTileGo",
			"fedmp/internal/tensor.microTileFMA",
			"fedmp/internal/tensor.mergeTile",
			"fedmp/internal/tensor.fmaf32",
			"fedmp/internal/tensor.gemmDirect",
			"fedmp/internal/tensor.gemmDirectSIMD",
			"fedmp/internal/tensor.gemmDirectScalar",
			"fedmp/internal/tensor.gemmBlocked",
			"fedmp/internal/tensor.matVec",
			"fedmp/internal/tensor.gemmMacro",
			"fedmp/internal/tensor.packRows",
			"fedmp/internal/tensor.packTransposed",
			"fedmp/internal/tensor.PackedA.Pack",
			"fedmp/internal/tensor.PackedA.PackRows",
			"fedmp/internal/tensor.PackedB.Pack",
			"fedmp/internal/tensor.PackedB.PackRows",
			"fedmp/internal/tensor.GEMMPacked",
			"fedmp/internal/tensor.IndirectConv.Plan",
			"fedmp/internal/tensor.IndirectConv.Load",
			"fedmp/internal/tensor.IndirectConv.Mul",
			"fedmp/internal/tensor.IndirectConv.AddGradW",
			"fedmp/internal/tensor.ExpInto",
			"fedmp/internal/tensor.SigmoidInto",
			"fedmp/internal/tensor.TanhInto",
			"fedmp/internal/tensor.Im2Col",
			"fedmp/internal/tensor.Col2Im",
			"fedmp/internal/nn.Dense.Forward",
			"fedmp/internal/nn.Dense.Backward",
			"fedmp/internal/nn.Dense.BackwardParams",
			"fedmp/internal/nn.Conv2D.Forward",
			"fedmp/internal/nn.Conv2D.Backward",
			"fedmp/internal/nn.Conv2D.BackwardParams",
			"fedmp/internal/nn.Conv2D.backward",
			"fedmp/internal/nn.Conv2D.plan",
			"fedmp/internal/nn.LSTM.Forward",
			"fedmp/internal/nn.LSTM.Backward",
			"fedmp/internal/nn.SoftmaxCE.softmaxCE",
			"fedmp/internal/nn.ReLU.Forward",
			"fedmp/internal/nn.ReLU.Backward",
			"fedmp/internal/nn.MaxPool2D.Forward",
			"fedmp/internal/nn.maxPool2x2",
			"fedmp/internal/nn.MaxPool2D.Backward",
			"fedmp/internal/nn.SGD.Step",
			"fedmp/internal/nn.GlobalAvgPool.Backward",
			"fedmp/internal/nn.AddProximal",
			"fedmp/internal/prune.SymmetricScale",
			"fedmp/internal/prune.QuantizeElem",
			"fedmp/internal/prune.accumulate",
			"fedmp/internal/prune.addInto",
			"fedmp/internal/prune.SelectKth",
			"fedmp/internal/transport/codec.putF32s",
			"fedmp/internal/transport/codec.getF32s",
			"fedmp/internal/transport/codec.nonzeroCount",
			"fedmp/internal/transport/codec.quantNonzeroCount",
			"fedmp/internal/simsched.Scheduler.Pop",
			"fedmp/internal/simsched.Scheduler.push",
			"fedmp/internal/simsched.Scheduler.siftUp",
			"fedmp/internal/simsched.Scheduler.siftDown",
			"fedmp/internal/cluster.splitmix64",
			"fedmp/internal/cluster.SubSeed",
			"fedmp/internal/cluster.Population.ClusterOf",
			"fedmp/internal/cluster.Population.Available",
			"fedmp/internal/cluster.jitterSource.Uint64",
			"fedmp/internal/cluster.jitterSource.Int63",
			"fedmp/internal/cluster.Population.Rebind",
		},
		WallclockSanctioned: []string{
			"fedmp/internal/simclock",
		},
	}
}

// Analyzer is one lint rule.
type Analyzer struct {
	// Name tags diagnostics ([name]).
	Name string
	// Doc is the one-paragraph rule description (DESIGN.md holds the long
	// form).
	Doc string
	// Run inspects one package and reports through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Opts is the run configuration.
	Opts *Options

	analyzer *Analyzer
	diags    *[]Diagnostic
	inter    *interState
}

// interState lazily shares the interprocedural results — call graph and
// effect summaries over the whole package set — across every analyzer and
// package of one Run, so the solve happens at most once per lint run.
type interState struct {
	pkgs  []*Package
	opts  *Options
	graph *CallGraph
	sums  *Summaries
}

// inScope reports whether the rule applies to the package under analysis.
func (p *Pass) inScope(rule string) bool {
	prefixes, scoped := p.Opts.Scope[rule]
	return !scoped || inScope(p.Pkg.Path, prefixes)
}

// ensureInter returns the pass's shared state, creating a single-package one
// for direct Pass construction outside Run (tests).
func (p *Pass) ensureInter() *interState {
	if p.inter == nil {
		p.inter = &interState{pkgs: []*Package{p.Pkg}, opts: p.Opts}
	}
	return p.inter
}

// Interprocedural returns the run-wide call graph and summaries, building
// them on first use.
func (p *Pass) Interprocedural() (*CallGraph, *Summaries) {
	st := p.ensureInter()
	if st.graph == nil {
		st.graph = BuildCallGraph(st.pkgs)
		st.sums = ComputeSummaries(st.graph, st.opts)
	}
	return st.graph, st.sums
}

// directiveLines returns the //fedmp:<rule>-ok lines of f, or nothing when
// the run ignores hatches (the stale-hatch detector's shadow run).
func (p *Pass) directiveLines(f *ast.File, directive string) map[int]bool {
	if p.Opts.IgnoreHatches {
		return map[int]bool{}
	}
	return directiveLines(p.Pkg.Fset, f, directive)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.ReportHint(pos, "", format, args...)
}

// ReportHint records a finding with a suggested rewrite.
func (p *Pass) ReportHint(pos token.Pos, hint, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		Hint:    hint,
	})
}

// Analyzers returns the full rule pipeline in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerRandSource,
		analyzerWallClock,
		analyzerFloatEq,
		analyzerSyncCopy,
		analyzerAllocFree,
		analyzerMapOrder,
		analyzerGobDeny,
		analyzerErrDiscard,
		analyzerSeedFlow,
		analyzerAtomicWrite,
		analyzerGoroLeak,
		analyzerTransitive,
	}
}

// RuleTiming is one analyzer's accumulated wall time over a whole run. The
// lazily built call graph and summaries are attributed to whichever rule
// triggers them first — transitive, since the first package visited lies
// outside goroleak's scope — so a slow new pass shows up under its own name
// or as a jump in its layer's first consumer.
type RuleTiming struct {
	Rule    string
	Elapsed time.Duration
}

// Run executes every analyzer over every package and returns the findings
// sorted by position then rule.
func Run(pkgs []*Package, opts *Options) []Diagnostic {
	diags, _ := RunTimed(pkgs, opts)
	return diags
}

// RunTimed is Run plus a per-rule wall-time breakdown in pipeline order —
// the `fedmp-lint -bench-json` payload.
func RunTimed(pkgs []*Package, opts *Options) ([]Diagnostic, []RuleTiming) {
	if opts == nil {
		opts = DefaultOptions()
	}
	var diags []Diagnostic
	inter := &interState{pkgs: pkgs, opts: opts}
	analyzers := Analyzers()
	timings := make([]RuleTiming, len(analyzers))
	for i, a := range analyzers {
		timings[i].Rule = a.Name
	}
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			start := time.Now()
			a.Run(&Pass{Pkg: pkg, Opts: opts, analyzer: a, diags: &diags, inter: inter})
			timings[i].Elapsed += time.Since(start)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	// Overlapping load patterns (e.g. `./... ./internal/core`) analyze a
	// package twice; collapse the identical findings so output is stable
	// across package-load order and shape.
	dedup := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := diags[i-1]
			if p.Pos.Filename == d.Pos.Filename && p.Pos.Line == d.Pos.Line &&
				p.Pos.Column == d.Pos.Column && p.Rule == d.Rule && p.Message == d.Message {
				continue
			}
		}
		dedup = append(dedup, d)
	}
	return dedup, timings
}

// directiveLines returns the lines of f on which the given //fedmp:...
// directive comment appears. A diagnostic is suppressed when the directive
// sits on the finding's own line (trailing comment) or the line above.
func directiveLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, directive) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// suppressed reports whether a finding at pos is covered by a directive line
// set from directiveLines.
func suppressed(fset *token.FileSet, lines map[int]bool, pos token.Pos) bool {
	line := fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// hasDirective reports whether the doc comment group carries the directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}
