package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict compares medians a (before) and b (after) of one end-to-end metric.
// The relative change is signed so that positive means worse. It is
// "unresolved" when either side's run-to-run spread is wider than the bound —
// the runs cannot tell a regression of that size from noise — "worse" when b
// is worse than a by more than the bound, and "ok" otherwise.
func verdict(d metricDef, a, b, spreadA, spreadB float64) (change float64, v string) {
	if a != 0 {
		change = (b - a) / a
	}
	if d.better == "higher" {
		change = -change
	}
	switch {
	case spreadA > d.bound || spreadB > d.bound:
		return change, "unresolved"
	case change > d.bound:
		return change, "worse"
	default:
		return change, "ok"
	}
}

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// failedShare is the share of a workload's operations that failed, over all
// of a suite's runs.
func (s *suiteResult) failedShare(workload string) string {
	var failed, attempted int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return fmt.Sprintf("%d/%d", failed, attempted)
}

// compareFiles prints one row per (workload, end-to-end metric) of two suite
// results and reports whether any row is worse.
func compareFiles(pathA, pathB string, stdout io.Writer) (worse bool, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%-18s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range workloads {
		// A suite run with a -workload filter has no rows for the others.
		if len(a.values(w.name, endToEnd[0].name)) == 0 || len(b.values(w.name, endToEnd[0].name)) == 0 {
			continue
		}
		for _, d := range endToEnd {
			xa, xb := a.values(w.name, d.name), b.values(w.name, d.name)
			change, v := verdict(d, median(xa), median(xb), quartileSpread(xa), quartileSpread(xb))
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-18s %-22s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n",
				w.name, d.name, median(xa), median(xb), 100*change, 100*d.bound, v)
		}
		fmt.Fprintf(stdout, "%-18s %-22s %14s %14s\n", w.name, "failed/attempted", a.failedShare(w.name), b.failedShare(w.name))
	}
	return worse, nil
}
