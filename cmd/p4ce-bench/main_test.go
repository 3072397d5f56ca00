package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"p4ce/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const (
	smokeBaseline = "../../bench/BENCH_smoke_baseline.json"
	quickBaseline = "../../bench/BENCH_baseline.json"
)

// transcript runs the command and renders its stdout, stderr and exit
// code as one text under the title what.
func transcript(what string, args ...string) string {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return fmt.Sprintf("### %s\n%s--- stderr\n%s--- exit %d\n", what, stdout.String(), stderr.String(), code)
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden (run go test -update after checking the change):\n%s", path, got)
	}
}

// TestAllSmoke renders every section of the smoke profile once, as
// text, as CSV files and as JSON: the text and every CSV match their
// goldens, and the JSON is the committed smoke baseline byte for byte.
func TestAllSmoke(t *testing.T) {
	dir := t.TempDir()
	csvDir, jsonPath := filepath.Join(dir, "csv"), filepath.Join(dir, "report.json")
	golden(t, "all_smoke.golden", transcript("every section, smoke profile", "-experiment", "all", "-profile", "smoke",
		"-csv", csvDir, "-json", "-out", jsonPath))

	files, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		blob, err := os.ReadFile(filepath.Join(csvDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, f.Name()+".golden")
		golden(t, names[len(names)-1], string(blob))
	}
	goldens, _ := filepath.Glob("testdata/*.csv.golden")
	for i := range goldens {
		goldens[i] = filepath.Base(goldens[i])
	}
	if !slices.Equal(goldens, names) {
		t.Errorf("CSV goldens %v, want one per written file %v", goldens, names)
	}

	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(smokeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-json -profile smoke differs from %s: regenerate it if the change is meant", smokeBaseline)
	}
}

// TestCSVWriteFailure: a CSV that cannot be written fails the command
// after the text has been printed.
func TestCSVWriteFailure(t *testing.T) {
	golden(t, "csv_write_failure.golden",
		transcript("CSV directory under a file", "-experiment", "burst", "-profile", "smoke", "-csv", "/dev/null/out"))
}

// TestUsageErrors: a bad flag combination or name exits 2 before any
// section runs.
func TestUsageErrors(t *testing.T) {
	golden(t, "usage_errors.golden", strings.Join([]string{
		transcript("unknown experiment", "-experiment", "fig5"),
		transcript("unknown profile", "-profile", "huge"),
		transcript("-json of one section", "-experiment", "burst", "-json"),
		transcript("compare with one report", "compare", smokeBaseline),
	}, ""))
}

// TestCompare covers compare's three exit codes: 0 for identical
// reports, 1 for a candidate 20% worse, 2 for a profile mismatch.
func TestCompare(t *testing.T) {
	blob, err := os.ReadFile(smokeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	worse, err := bench.ParseReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	worse.Goodput.Points[0].GoodputGBps *= 0.8
	if blob, err = worse.Marshal(); err != nil {
		t.Fatal(err)
	}
	worsePath := filepath.Join(t.TempDir(), "worse.json")
	if err := os.WriteFile(worsePath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	golden(t, "compare.golden", strings.Join([]string{
		transcript("identical reports", "compare", smokeBaseline, smokeBaseline),
		transcript("candidate goodput 20% worse", "compare", smokeBaseline, worsePath),
		transcript("profile mismatch", "compare", quickBaseline, smokeBaseline),
	}, ""))
}
