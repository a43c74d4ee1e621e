package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"fedmp"
	"fedmp/internal/metrics"
	"fedmp/internal/testfd"
)

func table(title string, rows ...[]string) *metrics.Table {
	return &metrics.Table{Title: title, Columns: []string{"model", "acc, %"}, Rows: rows}
}

// TestWriteCSVs pins -csv: a one-table report lands in <id>.csv, a
// multi-table one in <id>_<i>.csv, the files parse back to the tables, and
// no descriptor stays open — neither after a clean write nor after a write
// that fails (the file name is a symlink to /dev/full, which accepts the
// open and refuses the bytes). The collector is off: the finalizer of an
// unreachable os.File would close it and hide the leak.
func TestWriteCSVs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out", "csv") // writeCSVs creates it
	one := &fedmp.Report{ID: "table9", Tables: []*metrics.Table{
		table("t", []string{"cnn", "91.5"}, []string{"vgg, scaled", "88"}),
	}}
	many := &fedmp.Report{ID: "fig99", Tables: []*metrics.Table{
		table("a", []string{"cnn", "1"}),
		table("b"),
		table("c", []string{"lstm", "\"3\""}),
	}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := testfd.Open(t)
	leaked := func(when string) {
		t.Helper()
		for _, target := range testfd.Leaked(t, before) {
			t.Errorf("%s: descriptor on %s left open", when, target)
		}
	}

	for _, rep := range []*fedmp.Report{one, many} {
		if err := writeCSVs(dir, rep); err != nil {
			t.Fatal(err)
		}
	}
	leaked("after two reports")
	want := map[string]*metrics.Table{
		"table9.csv":  one.Tables[0],
		"fig99_0.csv": many.Tables[0], "fig99_1.csv": many.Tables[1], "fig99_2.csv": many.Tables[2],
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("%d files written, want %d", len(entries), len(want))
	}
	for name, tab := range want {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		got, err := csv.NewReader(f).ReadAll()
		f.Close()
		if wantRecs := append([][]string{tab.Columns}, tab.Rows...); err != nil || !reflect.DeepEqual(got, wantRecs) {
			t.Errorf("%s parses to %q, %v; want %q", name, got, err, wantRecs)
		}
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		return
	}
	if err := os.Symlink("/dev/full", filepath.Join(dir, "full.csv")); err != nil {
		t.Fatal(err)
	}
	if err := writeCSVs(dir, &fedmp.Report{ID: "full", Tables: one.Tables}); err == nil {
		t.Error("writeCSVs reported success writing to a full device")
	}
	leaked("after a failed write")
}
