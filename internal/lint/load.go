package lint

import (
	"bufio"
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
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed and type-checked package, the unit the
// analyzers operate on. Only non-test Go files are loaded: the repo's
// reproducibility rules deliberately do not apply to _test.go files.
type Package struct {
	// Path is the import path ("fedmp/internal/core"). Fixture packages
	// loaded from bare directories get a path synthesised from the module
	// path and their location.
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset is shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Export     string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// goList runs `go list -export -json` from root with the given extra
// arguments and decodes the JSON stream.
func goList(root string, args ...string) ([]listEntry, error) {
	cmdArgs := append([]string{
		"list", "-export",
		"-json=ImportPath,Export,Dir,GoFiles,Standard,DepOnly",
	}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list failed: %v\n%s", err, errb.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(&out)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportImporter satisfies go/types' import needs from the compiler export
// data `go list -export` produced. The gc importer caches packages, so the
// same instance must be shared across every type-check of one load.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// parseDir parses the non-test Go files under dir (non-recursive) into fset.
func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkPackage type-checks one package's files.
func checkPackage(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}

// Load loads, parses and type-checks the module packages matched by the go
// list patterns (e.g. "./..."), resolving every import — stdlib and
// intra-module alike — from compiler export data. root must be the module
// root.
func Load(root string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	entries, err := goList(root, append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := make(map[string]string, len(entries))
	for _, e := range entries {
		exports[e.ImportPath] = e.Export
	}
	imp := exportImporter(fset, exports)

	var pkgs []*Package
	for _, e := range entries {
		if e.Standard || e.DepOnly || len(e.GoFiles) == 0 {
			continue
		}
		files, err := parseDir(fset, e.Dir, e.GoFiles)
		if err != nil {
			return nil, err
		}
		tpkg, info, err := checkPackage(fset, e.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{
			Path:  e.ImportPath,
			Dir:   e.Dir,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDirs loads packages from bare directories `go list` does not see —
// the deliberately-bad fixture packages under testdata/. Each directory is
// one package; its imports are resolved from export data like Load's. The
// synthesised import path is modulePath/rel(root, dir), so scope-sensitive
// analyzers can be pointed at fixtures with ordinary path prefixes.
func LoadDirs(root string, dirs ...string) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	importSet := make(map[string]bool)
	for _, dir := range dirs {
		abs := dir
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(root, dir)
		}
		names, err := os.ReadDir(abs)
		if err != nil {
			return nil, err
		}
		var goNames []string
		for _, de := range names {
			if !de.IsDir() {
				goNames = append(goNames, de.Name())
			}
		}
		files, err := parseDir(fset, abs, goNames)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", abs)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return nil, err
				}
				if p != "unsafe" && p != "C" {
					importSet[p] = true
				}
			}
		}
		pkgs = append(pkgs, &Package{Path: modPath + "/" + filepath.ToSlash(rel), Dir: abs, Fset: fset, Files: files})
	}

	exports := make(map[string]string)
	if len(importSet) > 0 {
		paths := make([]string, 0, len(importSet))
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		entries, err := goList(root, append([]string{"-deps"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			exports[e.ImportPath] = e.Export
		}
	}
	imp := exportImporter(fset, exports)
	for _, pkg := range pkgs {
		if pkg.Types, pkg.Info, err = checkPackage(fset, pkg.Path, pkg.Files, imp); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}
