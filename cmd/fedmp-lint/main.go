// Command fedmp-lint runs the repo's static-analysis suite (internal/lint;
// -rules lists it): per-function rules over syntax and types, plus goroleak
// and transitive over a cross-package call graph. It loads every package
// matched by the given go-list patterns
// (default ./...), type-checks them against compiler export data, and prints
// deduplicated findings sorted by file/line/rule as
//
//	file:line: [rule] message
//
// exiting 1 when anything is found. With -hints each finding is followed by
// the suggested rewrite, the `make lint-fix-hints` mode; with -json each
// finding is one JSON object per line ({"file","line","rule","message"})
// for editors and CI to consume; with -sarif the whole run is one SARIF
// 2.1.0 document (rule inventory included) for code-scanning uploads. With
// -bench the run is timed and the command fails when load+analysis exceed
// the given budget — the `make lint-bench` regression guard — and
// -bench-json writes the per-rule wall-time breakdown to a file alongside.
// -hatches switches to the suppression audit: every //fedmp:<rule>-ok
// comment is re-checked against a hatch-blind lint of the same load, and
// the command fails when any hatch suppresses nothing (the `make ci`
// stale-hatch gate). -stats appends rule/finding/hatch counts to a run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fedmp/internal/lint"
)

func main() {
	hints := flag.Bool("hints", false, "print a suggested rewrite under each finding")
	jsonOut := flag.Bool("json", false, "print one JSON object per finding instead of text")
	sarifOut := flag.Bool("sarif", false, "print the run as one SARIF 2.1.0 document instead of text")
	rules := flag.Bool("rules", false, "list the analyzers and exit")
	bench := flag.Duration("bench", 0, "time the full load+analysis and fail when it exceeds this budget (0 disables)")
	benchJSON := flag.String("bench-json", "", "write the per-rule timing breakdown as JSON to this path")
	hatches := flag.Bool("hatches", false, "audit //fedmp:<rule>-ok hatches and fail when any suppress nothing")
	stats := flag.Bool("stats", false, "print rule/finding/hatch counts after the findings")
	flag.Parse()

	if *rules {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		cwd = root
	}
	if *hatches {
		runHatchAudit(pkgs, cwd)
		return
	}
	diags, timings := lint.RunTimed(pkgs, lint.DefaultOptions())
	elapsed := time.Since(start)
	if *sarifOut {
		err = renderSARIF(os.Stdout, diags, cwd)
	} else {
		err = render(os.Stdout, diags, cwd, *jsonOut, *hints)
	}
	if err != nil {
		fatal(err)
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, len(pkgs), elapsed, *bench, timings); err != nil {
			fatal(err)
		}
	}
	if *stats {
		printStats(os.Stdout, diags, lint.Hatches(pkgs))
	}
	if *bench > 0 {
		fmt.Fprintf(os.Stderr, "fedmp-lint: loaded and analyzed %d package(s) in %v (budget %v)\n",
			len(pkgs), elapsed.Round(time.Millisecond), *bench)
		if elapsed > *bench {
			fmt.Fprintln(os.Stderr, "fedmp-lint: over budget")
			os.Exit(1)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fedmp-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// runHatchAudit is the -hatches mode: inventory the suppression comments,
// re-lint with every hatch ignored, and fail on the ones suppressing
// nothing.
func runHatchAudit(pkgs []*lint.Package, cwd string) {
	all := lint.Hatches(pkgs)
	stale := lint.StaleHatches(pkgs, lint.DefaultOptions())
	for _, h := range stale {
		file := h.File
		if rel, err := filepath.Rel(cwd, file); err == nil && len(rel) < len(file) {
			file = rel
		}
		fmt.Printf("%s:%d: [stale-hatch] //fedmp:%s-ok suppresses nothing\n", file, h.Line, h.Rule)
	}
	fmt.Fprintf(os.Stderr, "fedmp-lint: %d hatch(es), %d stale\n", len(all), len(stale))
	if len(stale) > 0 {
		os.Exit(1)
	}
}

// benchReport is the -bench-json payload: the load+analysis wall time and
// the per-rule breakdown, in pipeline order.
type benchReport struct {
	Packages int         `json:"packages"`
	TotalMS  float64     `json:"total_ms"`
	BudgetMS float64     `json:"budget_ms,omitempty"`
	Rules    []benchRule `json:"rules"`
}

type benchRule struct {
	Rule string  `json:"rule"`
	MS   float64 `json:"ms"`
}

func writeBenchJSON(path string, packages int, elapsed, budget time.Duration, timings []lint.RuleTiming) error {
	report := benchReport{
		Packages: packages,
		TotalMS:  float64(elapsed.Microseconds()) / 1000,
		BudgetMS: float64(budget.Microseconds()) / 1000,
		Rules:    make([]benchRule, len(timings)),
	}
	for i, tm := range timings {
		report.Rules[i] = benchRule{Rule: tm.Rule, MS: float64(tm.Elapsed.Microseconds()) / 1000}
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// printStats appends the `make lint-stats` summary: registered rules,
// findings per rule, and the hatch inventory per rule.
func printStats(w io.Writer, diags []lint.Diagnostic, hatches []lint.Hatch) {
	byRule := make(map[string]int)
	for _, d := range diags {
		byRule[d.Rule]++
	}
	hatchByRule := make(map[string]int)
	for _, h := range hatches {
		hatchByRule[h.Rule]++
	}
	analyzers := lint.Analyzers()
	fmt.Fprintf(w, "rules:    %d\n", len(analyzers))
	fmt.Fprintf(w, "findings: %d\n", len(diags))
	fmt.Fprintf(w, "hatches:  %d\n", len(hatches))
	for _, a := range analyzers {
		if byRule[a.Name] == 0 && hatchByRule[a.Name] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %d finding(s), %d hatch(es)\n", a.Name, byRule[a.Name], hatchByRule[a.Name])
	}
}

// jsonFinding is the -json wire shape: one object per line.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Hint    string `json:"hint,omitempty"`
}

// render prints the findings (already deduplicated and sorted by lint.Run)
// with cwd-relative paths, as text or JSON lines.
func render(w io.Writer, diags []lint.Diagnostic, cwd string, jsonOut, hints bool) error {
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && len(rel) < len(d.Pos.Filename) {
			d.Pos.Filename = rel
		}
		if jsonOut {
			f := jsonFinding{File: d.Pos.Filename, Line: d.Pos.Line, Rule: d.Rule, Message: d.Message}
			if hints {
				f.Hint = d.Hint
			}
			line, err := json.Marshal(f)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
		if hints && d.Hint != "" {
			if _, err := fmt.Fprintf(w, "\thint: %s\n", d.Hint); err != nil {
				return err
			}
		}
	}
	return nil
}

// SARIF 2.1.0 document shapes — the subset code-scanning consumers require.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

// renderSARIF prints one SARIF 2.1.0 document: the full analyzer inventory
// as the rule table (so a clean run still documents what ran) and one
// error-level result per finding, with cwd-relative forward-slash URIs.
func renderSARIF(w io.Writer, diags []lint.Diagnostic, cwd string) error {
	ruleIndex := make(map[string]int)
	var rules []sarifRule
	for i, a := range lint.Analyzers() {
		ruleIndex[a.Name] = i
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	results := []sarifResult{} // render [] rather than null on a clean run
	for _, d := range diags {
		uri := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, uri); err == nil && len(rel) < len(uri) {
			uri = rel
		}
		idx, ok := ruleIndex[d.Rule]
		if !ok {
			idx = -1
		}
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(uri)},
					Region:           sarifRegion{StartLine: d.Pos.Line},
				},
			}},
		})
	}
	doc := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "fedmp-lint", Rules: rules}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedmp-lint:", err)
	os.Exit(2)
}
