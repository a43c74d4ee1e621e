// Package lint is fedmp's from-scratch static-analysis framework. It loads
// every package of the module with go/parser and go/types (resolving imports
// from compiler export data — no external dependencies) and runs a pipeline
// of repo-specific analyzers that enforce the invariants the paper's
// reproducibility story rests on:
//
//	randsource  — all randomness flows from an explicitly seeded *rand.Rand
//	wallclock   — the deterministic simulation layers never read the wall clock
//	floateq     — no exact equality between computed floating-point values
//	maporder    — map iteration never feeds ordered output in deterministic layers
//	gobdeny     — the wire layers never import encoding/gob (the binary codec owns framing)
//	errdiscard  — no error result of a call discarded with _
//	atomicwrite — durability layers write state files only via the fsync+rename helper
//
// Every rule reads one function's syntax and types at a time. What once took
// a call graph is held by executable oracles instead (DESIGN.md §7): the
// allocation tables pin the hot paths to zero allocations, transport's
// TestMain fails on a leaked goroutine, and wallclock's scope covers every
// package the simulation layers call. wallclock, gobdeny, atomicwrite and
// randsource's global-source half are rows of the one scope-deny table in
// deny.go. Findings are reported as "file:line: [rule] message";
// cmd/fedmp-lint exits nonzero on any finding, and `make check` runs it
// between vet and build.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
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
	// rule with no entry runs everywhere. The defaults: wallclock covers the
	// deterministic simulation layers and every package they call into,
	// whose results must be bit-identical across same-seed runs (the
	// designed clock seam, simclock, and internal/transport, which owns real
	// deadlines and heartbeats, are exempt); maporder covers the layers that
	// order output; gobdeny covers the transport, atomicwrite the checkpoint
	// layer.
	Scope map[string][]string
	// IgnoreHatches disables every //fedmp:<rule>-ok line directive for one
	// run. The stale-hatch detector diffs a normal run against an
	// IgnoreHatches run: a hatch no finding lands on is rot. The
	// //fedmp:atomicwrite-helper doc directive is a designation, not a
	// hatch, and is unaffected.
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
				"fedmp/internal/data",
				"fedmp/internal/metrics",
				"fedmp/internal/nn",
				"fedmp/internal/prune",
				"fedmp/internal/tensor",
				"fedmp/internal/zoo",
				"fedmp/internal/transport/codec",
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
}

// inScope reports whether the rule applies to the package under analysis.
func (p *Pass) inScope(rule string) bool {
	prefixes, scoped := p.Opts.Scope[rule]
	if !scoped {
		return true
	}
	for _, prefix := range prefixes {
		if p.Pkg.Path == prefix || strings.HasPrefix(p.Pkg.Path, prefix+"/") {
			return true
		}
	}
	return false
}

// directiveLines returns the //fedmp:<rule>-ok lines of f, or nothing when
// the run ignores hatches (the stale-hatch detector's shadow run).
func (p *Pass) directiveLines(f *ast.File, directive string) map[int]bool {
	if p.Opts.IgnoreHatches {
		return map[int]bool{}
	}
	return directiveLines(p.Pkg.Fset, f, directive)
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
		analyzerMapOrder,
		analyzerGobDeny,
		analyzerErrDiscard,
		analyzerAtomicWrite,
	}
}

// Run executes every analyzer over every package and returns the findings
// sorted by position then rule.
func Run(pkgs []*Package, opts *Options) []Diagnostic {
	if opts == nil {
		opts = DefaultOptions()
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			a.Run(&Pass{Pkg: pkg, Opts: opts, analyzer: a, diags: &diags})
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
	return dedup
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
