package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// wallclockScope is where real time must not meet simulated time: the
// deterministic simulation layers and every package they call into, whose
// results must be bit-identical across same-seed runs. simclock, the
// designed clock seam, and internal/transport, which owns real deadlines and
// heartbeats, stay outside.
var wallclockScope = []string{
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
}

// A rule looks at one node of a type-checked, non-test source file and says
// what is wrong with it, or returns "".
type rule struct {
	name string
	// scope lists the import paths the rule applies at and below; nil means
	// everywhere.
	scope []string
	check func(info *types.Info, n ast.Node) string
	// bad is a file body the rule must flag inside its scope.
	bad string
}

// rules are the checks no test replaces: each is the only catcher of a row
// of the mutant matrix (DESIGN.md §7 names it).
var rules = []rule{{
	name:  "wallclock",
	scope: wallclockScope,
	check: func(info *types.Info, n ast.Node) string {
		if name := selected(info, n, "time"); name == "Now" || name == "Since" || name == "Sleep" {
			return "time." + name + " mixes real time into the simulation; thread a simclock.Clock or use virtual time"
		}
		return ""
	},
	bad: `import "time"; var _ = time.Now()`,
}, {
	name: "floateq",
	check: func(info *types.Info, n ast.Node) string {
		if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) &&
			computedFloat(info, b.X) && computedFloat(info, b.Y) {
			return "exact " + b.Op.String() + " between computed floats flips with rounding; compare with a tolerance"
		}
		return ""
	},
	bad: `func f(a, b float64) bool { return a != b }`,
}, {
	name: "errdiscard",
	check: func(_ *types.Info, n ast.Node) string {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Rhs) != 1 {
			return ""
		}
		if _, call := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); !call {
			return ""
		}
		for _, lhs := range a.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
				return ""
			}
		}
		return "every result of a call, an error among them, discarded with _"
	},
	bad: `import "os"; func f() { _ = os.Remove("x") }`,
}, {
	name:  "atomicwrite",
	scope: []string{"fedmp/internal/transport/checkpoint"},
	check: func(info *types.Info, n ast.Node) string {
		if name := selected(info, n, "os"); name == "Create" || name == "WriteFile" || name == "OpenFile" {
			return "os." + name + " writes a state file other than the two round slots; only Open may, since each slot is written in place while the other keeps the previous round"
		}
		return ""
	},
	bad: `import "os"; var _, _ = os.Create("x")`,
}}

// allow is a finding the repository means: a rule, a module-relative file
// and the function the finding sits in.
type allow struct{ rule, file, fn string }

// allowed are the meant findings. A row that covers nothing fails TestLint.
var allowed = []allow{
	// The two round slots are the only files written, each in place: a torn
	// write of one leaves the previous round in the other.
	{"atomicwrite", "internal/transport/checkpoint/checkpoint.go", "Open"},
}

// finding is one rule's complaint about one line.
type finding struct {
	allow
	line int
	msg  string
}

func (f finding) String() string { return fmt.Sprintf("%s:%d: [%s] %s", f.file, f.line, f.rule, f.msg) }

// selected returns the name n selects from the imported package at path, or
// "" when n is not such a selector.
func selected(info *types.Info, n ast.Node, path string) string {
	if sel, ok := n.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == path {
				return sel.Sel.Name
			}
		}
	}
	return ""
}

// computedFloat reports whether e is a floating-point value that is not a
// constant.
func computedFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// lintPackage type-checks one package's files and runs every rule in scope
// over them.
func lintPackage(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File) ([]finding, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: imp}).Check(pkgPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	var found []finding
	for _, r := range rules {
		if r.scope != nil && !slices.ContainsFunc(r.scope, func(p string) bool {
			return pkgPath == p || strings.HasPrefix(pkgPath, p+"/")
		}) {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if msg := r.check(info, n); msg != "" {
						pos := fset.Position(n.Pos())
						found = append(found, finding{allow{r.name, pos.Filename, fn}, pos.Line, msg})
					}
					return true
				})
			}
		}
	}
	return found, nil
}

// lintTree lints the module at root and any module one directory below it
// (benchmark/), resolving imports from the export data of one `go list
// -export -deps` per module. It returns the findings no allowlist row covers,
// with module-relative file names, and the rows that covered nothing.
func lintTree(root string) (found []finding, stale []allow, err error) {
	var all []finding
	mods, err := filepath.Glob(filepath.Join(root, "*", "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	dirs := []string{root}
	for _, m := range mods {
		dirs = append(dirs, filepath.Dir(m))
	}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, nil, fmt.Errorf("go list in %s: %w\n%s", dir, err, ee.Stderr)
		} else if err != nil {
			return nil, nil, err
		}
		type listed struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard, DepOnly       bool
		}
		var pkgs []listed
		exports := map[string]string{}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				return nil, nil, err
			}
			pkgs, exports[p.ImportPath] = append(pkgs, p), p.Export
		}
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
		for _, p := range pkgs {
			if p.Standard || p.DepOnly {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, nil, err
				}
				files = append(files, f)
			}
			pf, err := lintPackage(fset, imp, p.ImportPath, files)
			if err != nil {
				return nil, nil, err
			}
			for _, f := range pf {
				rel, err := filepath.Rel(root, f.file)
				if err != nil {
					return nil, nil, err
				}
				f.file = filepath.ToSlash(rel)
				all = append(all, f)
			}
		}
	}
	found, stale = sieve(all, allowed)
	return found, stale, nil
}

// sieve splits findings into those no row covers, and returns with
// them the rows that covered no finding.
func sieve(findings []finding, rows []allow) (rest []finding, stale []allow) {
	covered := make([]bool, len(rows))
	for _, f := range findings {
		if i := slices.Index(rows, f.allow); i >= 0 {
			covered[i] = true
		} else {
			rest = append(rest, f)
		}
	}
	for i, a := range rows {
		if !covered[i] {
			stale = append(stale, a)
		}
	}
	return rest, stale
}

// moduleRoot is the directory of the root module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestLint holds each rule to firing on its example.
func TestLint(t *testing.T) {
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "bad.go", "package bad; "+r.bad, 0)
			if err != nil {
				t.Fatal(err)
			}
			pkgPath := "fedmp/bad"
			if r.scope != nil {
				pkgPath = path.Join(r.scope[0], "bad")
			}
			got, err := lintPackage(fset, importer.ForCompiler(fset, "gc", nil), pkgPath, []*ast.File{f})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(got, func(f finding) bool { return f.rule == r.name }) {
				t.Errorf("%s does not flag %q", r.name, r.bad)
			}
		})
	}
}

// TestRepoLintsClean holds both modules, the root and benchmark/, to every
// rule: a finding no allowlist row covers fails.
func TestRepoLintsClean(t *testing.T) {
	found, _, err := lintTree(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestRepoHatchesAllLive holds each allowlist row to a finding it covers in
// the repository, so a row outlives no site it was written for.
func TestRepoHatchesAllLive(t *testing.T) {
	_, stale, err := lintTree(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range stale {
		t.Errorf("allowlist row %+v covers no finding", a)
	}
}

// TestStaleHatches checks the allowlist audit itself: a row covers only the
// finding of its own rule, file and function, and a row that covers nothing is
// reported, where TestRepoHatchesAllLive would otherwise pass on a broken
// audit.
func TestStaleHatches(t *testing.T) {
	live := allow{"atomicwrite", "a/a.go", "Open"}
	dead := allow{"atomicwrite", "a/a.go", "Close"}
	otherRule := finding{allow{"errdiscard", "a/a.go", "Open"}, 9, "discarded"}
	findings := []finding{{live, 3, "in place"}, {live, 7, "in place"}, otherRule}
	rest, stale := sieve(findings, []allow{live, dead})
	if !slices.Equal(rest, []finding{otherRule}) {
		t.Errorf("uncovered findings %v, want only %v", rest, otherRule)
	}
	if !slices.Equal(stale, []allow{dead}) {
		t.Errorf("stale rows %+v, want only %+v", stale, dead)
	}
}
