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
//	errdiscard  — no error result discarded with _ or stored and never read
//	lockbalance — every Lock/RLock is unlocked on every path to return
//	seedflow    — fresh rand.New/NewSource results flow onward, not stay confined
//	atomicwrite — durability layers write state files only via the fsync+rename helper
//	wiretaint   — wire-decoded integers pass a bounds check before reaching allocations
//	goroleak    — transport go statements have a provable exit path
//	transitive  — allocfree and wallclock hold across call boundaries, via summaries
//	chanlife    — local channel values obey their lifecycle (no double close, no
//	              closed/nil sends, no receiverless unbuffered sends)
//	protoorder  — wire frames are emitted in protocol-machine order, per stream
//	scopedrop   — values with cleanup obligations reach Close/Put or a releasing owner
//
// maporder, errdiscard, lockbalance and seedflow are flow-sensitive: they
// run over the intraprocedural CFGs of cfg.go and the worklist analyses of
// dataflow.go rather than bare syntax. wiretaint, goroleak and transitive
// are interprocedural: they consume the cross-package call graph of
// callgraph.go and the bottom-up SCC effect summaries of summary.go.
// chanlife, protoorder and scopedrop are typestate analyzers on the fourth
// layer: the intraprocedural value-flow graph of valueflow.go (may-alias
// classes with origins and escape flags), combined with the CFG for
// per-class state tracking and with the call graph for cross-function
// frame/release summaries. Findings are reported as "file:line: [rule]
// message"; cmd/fedmp-lint exits nonzero on any finding, and `make check`
// runs it between vet and build.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	// WallclockDeny lists the import-path prefixes in which the wallclock
	// analyzer bans time.Now/time.Since/time.Sleep — the deterministic
	// simulation layers. Packages outside every prefix (notably
	// internal/transport, which owns real deadlines and heartbeats) are
	// exempt.
	WallclockDeny []string
	// RequiredAllocFree lists functions that must carry the
	// //fedmp:allocfree annotation, in funcKey form: "pkgpath.Func" or
	// "pkgpath.Recv.Method" (pointer receivers without the star). It pins
	// the PR 2 hot paths: deleting an annotation fails the build gate
	// instead of silently dropping the check.
	RequiredAllocFree []string
	// MapOrderDeny lists the import-path prefixes in which the maporder
	// analyzer bans map iteration feeding ordered output — the layers whose
	// results must be bit-identical across same-seed runs. Transport is
	// exempt: its maps order network events, which carry their own ids.
	MapOrderDeny []string
	// GobDeny lists the import-path prefixes in which the gobdeny analyzer
	// bans encoding/gob imports — the wire layers, which moved to the
	// binary frame codec and must not regress to reflective encoding.
	GobDeny []string
	// AtomicWriteScope lists the import-path prefixes in which the
	// atomicwrite analyzer requires state files to be written through the
	// package's fsync+rename helper — the durability layers, whose crash
	// guarantees evaporate the moment a snapshot is created in place.
	AtomicWriteScope []string
	// WireTaintScope lists the import-path prefixes in which the wiretaint
	// analyzer requires wire-decoded integers to pass a bounds check before
	// reaching make/unsafe.Slice/index sinks — the frame decode layers,
	// where every length is attacker-controlled.
	WireTaintScope []string
	// GoroLeakScope lists the import-path prefixes in which the goroleak
	// analyzer requires every go statement to have a provable exit path —
	// the transport layer, whose goroutines outlive requests.
	GoroLeakScope []string
	// WallclockSanctioned lists the import-path prefixes that form the
	// designed wall-clock seam (simclock): their summaries never report
	// Wallclock, so threading a clock through them stays legal while any
	// other escape from the deterministic layers is a transitive finding.
	WallclockSanctioned []string
	// ChanLifeScope lists the import-path prefixes in which the chanlife
	// analyzer tracks channel typestate. The list names the production
	// packages explicitly (rather than one fedmp/internal prefix) so the
	// deliberately-bad fixtures of the other rules stay out of scope.
	ChanLifeScope []string
	// ProtoOrderScope lists the import-path prefixes in which the protoorder
	// analyzer checks frame-emission order against the wire-protocol state
	// machine — the transport (send paths) and core (priced paths) layers.
	ProtoOrderScope []string
	// ProtoOrderRoles maps protocol role roots (funcKey form) to the frame
	// kinds their reachable send paths may emit: the PS accept/round loop
	// under transport.Serve sends assigns, pings and shutdowns; the worker
	// session loop under transport.RunWorker sends hellos, results and
	// pongs. A function reachable from exactly one root must stay inside
	// that root's kind set.
	ProtoOrderRoles map[string][]byte
	// ScopeDropScope lists the import-path prefixes in which the scopedrop
	// analyzer tracks cleanup obligations (files, connections, pooled
	// buffers). Explicit production packages, for the same fixture-isolation
	// reason as ChanLifeScope.
	ScopeDropScope []string
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
		WallclockDeny: []string{
			"fedmp/internal/core",
			"fedmp/internal/cluster",
			"fedmp/internal/bandit",
			"fedmp/internal/experiment",
			"fedmp/internal/simsched",
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
		},
		MapOrderDeny: []string{
			"fedmp/internal/core",
			"fedmp/internal/cluster",
			"fedmp/internal/bandit",
			"fedmp/internal/experiment",
			"fedmp/internal/metrics",
			"fedmp/internal/simsched",
		},
		GobDeny: []string{
			"fedmp/internal/transport",
		},
		AtomicWriteScope: []string{
			"fedmp/internal/transport/checkpoint",
		},
		WireTaintScope: []string{
			"fedmp/internal/transport/codec",
		},
		GoroLeakScope: []string{
			"fedmp/internal/transport",
		},
		WallclockSanctioned: []string{
			"fedmp/internal/simclock",
		},
		ChanLifeScope: []string{
			"fedmp/internal/core",
			"fedmp/internal/cluster",
			"fedmp/internal/bandit",
			"fedmp/internal/experiment",
			"fedmp/internal/metrics",
			"fedmp/internal/transport",
			"fedmp/internal/tensor",
			"fedmp/internal/nn",
			"fedmp/internal/prune",
			"fedmp/internal/simclock",
			"fedmp/internal/simsched",
			"fedmp/cmd",
		},
		ProtoOrderScope: []string{
			"fedmp/internal/transport",
			"fedmp/internal/core",
		},
		ProtoOrderRoles: map[string][]byte{
			"fedmp/internal/transport.Serve":     {protoAssign, protoPing, protoShutdown},
			"fedmp/internal/transport.RunWorker": {protoHello, protoResult, protoPong},
		},
		ScopeDropScope: []string{
			"fedmp/internal/core",
			"fedmp/internal/cluster",
			"fedmp/internal/bandit",
			"fedmp/internal/experiment",
			"fedmp/internal/metrics",
			"fedmp/internal/transport",
			"fedmp/internal/tensor",
			"fedmp/internal/nn",
			"fedmp/internal/prune",
			"fedmp/internal/simsched",
			"fedmp/cmd",
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

// interState lazily shares the interprocedural results — call graph, effect
// summaries, value-flow graphs and the typestate analyzers' derived
// summaries over the whole package set — across every analyzer and package
// of one Run, so each expensive solve happens at most once per lint run.
type interState struct {
	pkgs  []*Package
	opts  *Options
	graph *CallGraph
	sums  *Summaries
	// vflows caches one ValueFlow per function body across the chanlife,
	// protoorder and scopedrop passes.
	vflows map[*ast.BlockStmt]*ValueFlow
	// proto is the run-wide protoorder state (frame summaries, role
	// reachability); drop is the run-wide scopedrop release-fate table.
	proto *protoState
	drop  *dropState
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

// ValueFlow returns the value-flow graph of one of this package's function
// bodies, shared across analyzers the same way Interprocedural shares the
// call graph.
func (p *Pass) ValueFlow(body *ast.BlockStmt, sig *types.Signature) *ValueFlow {
	return p.ensureInter().valueFlow(p.Pkg, body, sig)
}

// valueFlow is the package-aware cache behind Pass.ValueFlow; the summary
// builders use it directly for bodies belonging to other packages of the
// load.
func (st *interState) valueFlow(pkg *Package, body *ast.BlockStmt, sig *types.Signature) *ValueFlow {
	if st.vflows == nil {
		st.vflows = make(map[*ast.BlockStmt]*ValueFlow)
	}
	if vf, ok := st.vflows[body]; ok {
		return vf
	}
	vf := BuildValueFlow(body, sig, pkg.Info)
	st.vflows[body] = vf
	return vf
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
		analyzerLockBalance,
		analyzerSeedFlow,
		analyzerAtomicWrite,
		analyzerWireTaint,
		analyzerGoroLeak,
		analyzerTransitive,
		analyzerChanLife,
		analyzerProtoOrder,
		analyzerScopeDrop,
	}
}

// RuleTiming is one analyzer's accumulated wall time over a whole run. The
// lazily built shared layers (call graph, summaries, value-flow graphs) are
// attributed to whichever rule triggers them first — by pipeline order that
// is wiretaint for the interprocedural solve and chanlife for the value-flow
// cache — so a slow new pass shows up under its own name or as a jump in its
// layer's first consumer.
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
