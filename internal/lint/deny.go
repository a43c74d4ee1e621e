// The scope-deny rules: inside a rule's scope, mentioning certain names of a
// package — or importing it at all — is a finding. wallclock, gobdeny,
// atomicwrite and the global-source half of randsource are this one pass
// over one table; they differ only in the row.
package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// denyRow is one scope-deny rule. Its scope is Options.Scope[name]; a rule
// with no entry there runs everywhere.
type denyRow struct {
	name string
	doc  string
	// pkgs are the import paths the ban applies to.
	pkgs []string
	// selectors are the banned package-level names; nil bans the import
	// itself (and anything below it).
	selectors map[string]bool
	// ok is the line directive that suppresses one finding ("" for a rule
	// without a hatch); helper is the doc directive that exempts a whole
	// function, because it is the sanctioned implementation.
	ok, helper string
	// message takes the selected name (the import path for an import ban)
	// as %[1]s and the linted package's path as %[2]s.
	message, hint string
}

var denyRandSource = &denyRow{
	name: "randsource",
	pkgs: []string{"math/rand", "math/rand/v2"},
	// The package-level functions that draw from the process-global source.
	// Using them makes a run's stochastic choices depend on whatever else
	// touched the global source, so E-UCB arms, cluster jitter, non-IID
	// partitions and dropout masks stop being a function of the configured
	// seed.
	selectors: map[string]bool{
		// math/rand
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "NormFloat64": true,
		"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
		"Read": true,
		// math/rand/v2 additions
		"IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
		"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
		"N": true,
	},
	message: "global math/rand source: rand.%[1]s draws from process state, not the run seed",
	hint:    "thread a seeded *rand.Rand (rand.New(rand.NewSource(cfg.Seed))) from the caller and call the method on it",
}

var denyWallclock = &denyRow{
	name: "wallclock",
	doc: "bans time.Now/time.Since/time.Sleep inside the deterministic " +
		"simulation layers and every package they call into (core, cluster, " +
		"bandit, experiment, simsched, data, metrics, nn, prune, tensor, zoo, " +
		"transport/codec); simulated time must come from the engine's " +
		"virtual clock or a threaded simclock.Clock. " +
		"//fedmp:wallclock-ok on the preceding or same line suppresses.",
	pkgs: []string{"time"},
	// The entry points that leak real time into a computation. Duration
	// arithmetic, formatting and constants remain fine everywhere — only
	// reading or waiting on the wall clock is a determinism hazard.
	selectors: map[string]bool{"Now": true, "Since": true, "Sleep": true},
	ok:        "//fedmp:wallclock-ok",
	message:   "wall clock in deterministic layer: time.%[1]s mixes real time into the simulation",
	hint:      "thread a simclock.Clock (core.Config.Clock) for overhead accounting, or use the engine's virtual time (RoundInfo/Result fields)",
}

var denyGob = &denyRow{
	name: "gobdeny",
	doc: "bans encoding/gob imports inside the wire layers (internal/transport " +
		"and below): the transport moved to the hand-rolled binary frame codec, " +
		"and a gob import is a regression to reflective, descriptor-heavy " +
		"encoding that breaks the measured-bytes contract between the TCP " +
		"runtime and the simulation. Test files are exempt. " +
		"//fedmp:gobdeny-ok on the preceding or same line suppresses.",
	pkgs:    []string{"encoding/gob"},
	ok:      "//fedmp:gobdeny-ok",
	message: "encoding/gob imported in wire layer %[2]s: the transport's frame format is the binary codec, not gob",
	hint:    "encode with internal/transport/codec (WriteFrame/ReadFrame); gob re-sends type descriptors and reflects per element, which the binary codec exists to avoid",
}

var denyAtomicWrite = &denyRow{
	name: "atomicwrite",
	doc: "requires durable-state packages (the checkpoint layer) to write state " +
		"files only through their fsync+rename helper: direct os.Create / " +
		"os.WriteFile / os.OpenFile calls outside a function whose doc carries " +
		"//fedmp:atomicwrite-helper are flagged, because a bare create " +
		"truncates in place and a crash mid-write leaves a torn snapshot the " +
		"recovery path then has to distrust. Test files are exempt. " +
		"//fedmp:atomicwrite-ok on the preceding or same line suppresses.",
	pkgs:      []string{"os"},
	selectors: map[string]bool{"Create": true, "WriteFile": true, "OpenFile": true},
	// The hatch is for a file that genuinely may be written in place (an
	// append-only log whose recovery tolerates a torn tail); the helper
	// directive marks the one function that implements the atomic write.
	ok:      "//fedmp:atomicwrite-ok",
	helper:  "//fedmp:atomicwrite-helper",
	message: "os.%[1]s writes a state file directly in %[2]s: durable state must go through the fsync+rename helper",
	hint:    "route the write through the package's fsync+rename helper (temp file, Sync, Close, Rename, directory sync); a bare create can leave a torn state file after a crash",
}

var (
	analyzerWallClock   = denyWallclock.analyzer()
	analyzerGobDeny     = denyGob.analyzer()
	analyzerAtomicWrite = denyAtomicWrite.analyzer()
)

func (row *denyRow) analyzer() *Analyzer {
	return &Analyzer{Name: row.name, Doc: row.doc, Run: row.run}
}

func (row *denyRow) run(pass *Pass) {
	if !pass.inScope(row.name) {
		return
	}
	for _, f := range pass.Pkg.Files {
		var ok map[int]bool
		if row.ok != "" {
			ok = pass.directiveLines(f, row.ok)
		}
		report := func(n ast.Node, name string) {
			if !suppressed(pass.Pkg.Fset, ok, n.Pos()) {
				pass.ReportHint(n.Pos(), row.hint, row.message, name, pass.Pkg.Path)
			}
		}
		if row.selectors == nil {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				for _, banned := range row.pkgs {
					if path == banned || strings.HasPrefix(path, banned+"/") {
						report(imp, path)
					}
				}
			}
			continue
		}
		for _, decl := range f.Decls {
			if fn, isFunc := decl.(*ast.FuncDecl); isFunc && row.helper != "" && hasDirective(fn.Doc, row.helper) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, isSel := n.(*ast.SelectorExpr); isSel {
					if name := row.selected(pass, sel); row.selectors[name] {
						report(sel, name)
					}
				}
				return true
			})
		}
	}
}

// selected returns the name sel picks from one of the row's packages, ""
// when it is not a selector on any of them.
func (row *denyRow) selected(pass *Pass, sel *ast.SelectorExpr) string {
	for _, pkg := range row.pkgs {
		if name := pkgSel(pass.Pkg.Info, sel, pkg); name != "" {
			return name
		}
	}
	return ""
}
