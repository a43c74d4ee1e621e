// Command fedmp-bench regenerates the paper's evaluation artefacts
// (Tables II–IV, Figures 2–12) and prints them as text tables, optionally
// writing CSVs.
//
// Usage:
//
//	fedmp-bench -exp all            # every artefact, full scale
//	fedmp-bench -exp fig6 -quick    # one artefact, reduced scale
//	fedmp-bench -exp table3 -csv out/
//
// Performance is measured elsewhere: `bash benchmark/run.sh` end to end and
// per layer, `go test -bench` per kernel.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fedmp"
)

func main() {
	exp := flag.String("exp", "all", "artefact id (table2…table4, fig2…fig12), comma-separated list, or 'all'")
	quick := flag.Bool("quick", false, "reduced experiment sizes")
	seed := flag.Int64("seed", 1, "experiment seed")
	csvDir := flag.String("csv", "", "directory to write per-table CSVs into (optional)")
	verbose := flag.Bool("v", false, "log each simulation as it starts")
	flag.Parse()

	opts := fedmp.ExperimentOptions{Quick: *quick, Seed: *seed}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			log.Printf(format, args...)
		}
	}
	lab := fedmp.NewLab(opts)

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = fedmp.ExperimentIDs()
	}
	start := time.Now()
	for _, id := range ids {
		rep, err := lab.Run(id)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fedmp.WriteReport(os.Stdout, rep)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, rep); err != nil {
				log.Fatalf("writing CSVs: %v", err)
			}
		}
	}
	fmt.Printf("regenerated %d artefact(s) in %s\n", len(ids), time.Since(start).Round(time.Second))
}

func writeCSVs(dir string, rep *fedmp.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range rep.Tables {
		name := fmt.Sprintf("%s_%d.csv", rep.ID, i)
		if len(rep.Tables) == 1 {
			name = rep.ID + ".csv"
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
