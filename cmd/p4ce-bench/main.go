// Command p4ce-bench regenerates the paper's evaluation (§V) and this
// repository's own sweeps. It builds one bench.Report at a profile and
// seed and renders every section of it as aligned text tables, and on
// request as CSV files and as the JSON report itself, so the text, the
// CSVs and the committed baselines all hold the same numbers.
//
//	p4ce-bench -profile full                 # every EXPERIMENTS.md table (seconds)
//	p4ce-bench -experiment burst -profile full   # one section: Fig. 7
//	p4ce-bench -profile full -csv out/       # also one CSV per table
//	p4ce-bench -json -profile quick          # also write BENCH_p4ce.json
//	p4ce-bench compare base.json cand.json   # exit 1 on >10% regression
//
// The sections, by -experiment key: goodput (Fig. 5), latency (Fig. 6),
// burst (Fig. 7), failover (Table IV), ablation (§V-C max consensus/s,
// §IV-D ACK placement, Lesson 3 async reconfiguration, min-credit),
// sharded, batch_sweep, breakdown, scaling, fabric and timeline.
//
// Reports contain no wall-clock values, so a fixed (profile, seed)
// pair prints the same bytes on any machine: that is what makes the
// committed bench/BENCH_baseline.json (quick) and
// bench/BENCH_smoke_baseline.json (smoke) comparable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"p4ce/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it returns 0 on success, 1 when a report cannot
// be built or written, and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p4ce-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "section to run: all, or one of "+strings.Join(bench.SectionKeys(), ", "))
	profile := fs.String("profile", "quick", "report profile: full (EXPERIMENTS.md), quick (bench/BENCH_baseline.json), smoke")
	seed := fs.Int64("seed", 1, "simulation seed")
	csvDir := fs.String("csv", "", "also write one CSV per table into this directory")
	jsonOut := fs.Bool("json", false, "also write the report as JSON to -out (needs -experiment all)")
	outPath := fs.String("out", "BENCH_p4ce.json", "output path for -json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "p4ce-bench:", err)
		return code
	}
	if fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			return fail(2, errors.New("usage: p4ce-bench compare <baseline.json> <candidate.json>"))
		}
		return compare(fs.Arg(1), fs.Arg(2), stdout, stderr)
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	p, err := bench.ProfileByName(*profile)
	if err != nil {
		return fail(2, err)
	}
	var keys []string
	switch {
	case *experiment == "all":
	case !slices.Contains(bench.SectionKeys(), *experiment):
		return fail(2, fmt.Errorf("unknown experiment %q", *experiment))
	case *jsonOut:
		return fail(2, errors.New("-json writes a whole report: use -experiment all"))
	default:
		keys = []string{*experiment}
	}

	rep, err := bench.BuildReport(*seed, p, keys...)
	if err != nil {
		return fail(1, err)
	}
	tables, err := rep.Tables(keys...)
	if err != nil {
		return fail(1, err)
	}
	for _, t := range tables {
		if err := t.WriteText(stdout); err != nil {
			return fail(1, err)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(1, err)
		}
		for _, t := range tables {
			if err := writeFile(filepath.Join(*csvDir, t.Name+".csv"), t.WriteCSV); err != nil {
				return fail(1, err)
			}
		}
	}
	if *jsonOut {
		blob, err := rep.Marshal()
		if err != nil {
			return fail(1, err)
		}
		if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
			return fail(1, err)
		}
	}
	return 0
}

// writeFile creates path and fills it with write, reporting the write
// and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// compare diffs a candidate report against a baseline, printing any
// regressions. Exit codes: 0 clean, 1 regressions, 2 unusable input.
func compare(basePath, candPath string, stdout, stderr io.Writer) int {
	var reps [2]*bench.Report
	for i, path := range []string{basePath, candPath} {
		blob, err := os.ReadFile(path)
		if err == nil {
			reps[i], err = bench.ParseReport(blob)
		}
		if err != nil {
			fmt.Fprintf(stderr, "p4ce-bench: %s: %v\n", path, err)
			return 2
		}
	}
	base, cand := reps[0], reps[1]
	if base.Profile != cand.Profile || base.Seed != cand.Seed {
		fmt.Fprintf(stderr, "p4ce-bench: comparing (profile=%s seed=%d) against (profile=%s seed=%d): must match for a meaningful diff\n",
			cand.Profile, cand.Seed, base.Profile, base.Seed)
		return 2
	}
	regs := bench.CompareReports(base, cand)
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "p4ce-bench: no regression beyond %.0f%% (%s vs %s)\n",
			bench.RegressionThreshold*100, candPath, basePath)
		return 0
	}
	fmt.Fprintf(stdout, "p4ce-bench: %d metric(s) regressed beyond %.0f%%:\n", len(regs), bench.RegressionThreshold*100)
	for _, r := range regs {
		fmt.Fprintln(stdout, "  "+r.String())
	}
	return 1
}
