// Stale-hatch detection. Every //fedmp:<rule>-ok comment is a standing
// claim: "this line would trip <rule>, and the exception is deliberate".
// Code drifts — the offending call moves, the rule's scope changes, the
// refactor removes the reason — and the comment stays behind, silently
// widening what a future edit may get away with on that line. Hatches
// inventories the claims; StaleHatches re-lints the same load with every
// hatch ignored and returns the ones whose line no longer produces the
// finding they suppress. `fedmp-lint -hatches` (wired into `make ci`) fails
// on any stale hatch, so suppression comments stay exactly as live as the
// violations under them.
package lint

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Hatch is one live or stale //fedmp:<rule>-ok suppression comment.
type Hatch struct {
	// File is the filename as the loader's FileSet renders it.
	File string
	// Line is the 1-based line the comment sits on; it suppresses findings
	// of Rule on this line and the next.
	Line int
	// Rule is the analyzer the hatch addresses.
	Rule string
}

func (h Hatch) String() string {
	return fmt.Sprintf("%s:%d: //fedmp:%s-ok", h.File, h.Line, h.Rule)
}

// Hatches inventories every suppression hatch in the loaded packages, in
// file/line order. Only comments naming a registered rule count: designation
// directives (//fedmp:atomicwrite-helper) and unknown names are not hatches.
func Hatches(pkgs []*Package) []Hatch {
	rules := make(map[string]bool)
	for _, a := range Analyzers() {
		rules[a.Name] = true
	}
	seen := make(map[string]bool)
	var out []Hatch
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rule, ok := hatchRule(c.Text, rules)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := hatchKey(pos.Filename, pos.Line, rule)
					if seen[key] {
						continue // test and non-test variants load a file twice
					}
					seen[key] = true
					out = append(out, Hatch{File: pos.Filename, Line: pos.Line, Rule: rule})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// StaleHatches re-lints the load with hatches ignored and returns, in
// file/line order, every hatch that suppresses nothing: no finding of its
// rule lands on its own line or the line below (the two positions suppressed
// covers).
func StaleHatches(pkgs []*Package, opts *Options) []Hatch {
	if opts == nil {
		opts = DefaultOptions()
	}
	hatches := Hatches(pkgs)
	if len(hatches) == 0 {
		return nil
	}
	shadow := *opts
	shadow.IgnoreHatches = true
	covered := make(map[string]bool)
	for _, d := range Run(pkgs, &shadow) {
		covered[hatchKey(d.Pos.Filename, d.Pos.Line, d.Rule)] = true
	}
	var stale []Hatch
	for _, h := range hatches {
		if covered[hatchKey(h.File, h.Line, h.Rule)] ||
			covered[hatchKey(h.File, h.Line+1, h.Rule)] {
			continue
		}
		stale = append(stale, h)
	}
	return stale
}

func hatchKey(file string, line int, rule string) string {
	return fmt.Sprintf("%s:%d:%s", file, line, rule)
}

// hatchRule extracts the rule name of a hatch comment, tolerating trailing
// rationale text after the directive.
func hatchRule(text string, rules map[string]bool) (string, bool) {
	const prefix = "//fedmp:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
		rest = rest[:i]
	}
	rule, ok := strings.CutSuffix(rest, "-ok")
	if !ok || !rules[rule] {
		return "", false
	}
	return rule, true
}
