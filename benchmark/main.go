// Command benchmark measures the p4ce simulator on two clocks: what a
// run costs on the host, and what the modelled cluster achieves in
// simulated time, on four named workloads, attributed per layer.
//
//	go run . --workload p4ce-small --seed 1 --seconds 20 --trace 0
//
// prints every end-to-end metric (--trace 1: every per-layer metric) by
// name with unit, clock, direction and bound, then one JSON object on
// the last line. It exits non-zero when an output check fails. See
// README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// setupsPerRun is how many times an untraced closed-loop run performs
// its set-up; setup_s is their median.
const setupsPerRun = 7

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all)")
		seed      = flag.Int64("seed", 1, "every input is generated from this seed")
		seconds   = flag.Float64("seconds", 20, "wall-clock budget of the measured phase")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run and the layer drivers")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of every workload and compare them within the bounds")
		out       = flag.String("out", "", "directory to write <workload>.json (and <workload>.cpu.pb.gz when traced) into")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	fmt.Printf("# host.nproc=%d host.gomaxprocs=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# injected delays: %s\n", injectedDelays)
	if *selfcheck {
		if err := runSelfcheck(*seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{*w}
	}
	ok := true
	for _, w := range selected {
		rep, err := runOne(w, *seed, *seconds, *trace != 0)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.print()
		if *out != "" {
			if err := rep.write(*out); err != nil {
				fatal(err)
			}
		}
		ok = ok && rep.Correct
		// The driver reads the last line of standard output.
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report is one run's result in the form the driver reads.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`

	workload string
	traced   bool
	specs    []metricSpec
	problems []string
	spread   map[string][3]float64 // host metrics: q1, median, q3 over segments
	profile  []byte
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne performs one benchmark run: the untraced end-to-end run, or
// the traced per-layer run.
func runOne(w workload, seed int64, seconds float64, traced bool) (*report, error) {
	if seconds < 0 || math.IsNaN(seconds) {
		return nil, fmt.Errorf("bad --seconds %v", seconds)
	}
	rep := &report{workload: w.name, traced: traced, Metrics: map[string]measured{}, spread: map[string][3]float64{}}
	var vals metrics
	if traced {
		rep.specs = perLayerSpecs
		res, layer, profile, err := runTraced(w, seed, seconds, detSegsFor(seconds), 1, 5)
		if err != nil {
			return nil, err
		}
		rep.fill(res)
		rep.profile = profile
		vals = layer
	} else {
		rep.specs = endToEndSpecs
		res, err := w.run(runConfig{seed: seed, seconds: seconds, setups: setupsPerRun})
		if err != nil {
			return nil, err
		}
		rep.fill(res)
		vals = res.endToEnd()
		q1, med, q3 := quartiles(res.segNsPerOp)
		rep.spread["wall_ns_per_op"] = [3]float64{q1, med, q3}
		q1, med, q3 = quartiles(res.setupS)
		rep.spread["setup_s"] = [3]float64{q1, med, q3}
	}
	for _, spec := range rep.specs {
		v, ok := vals[spec.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", spec.name, v)
		}
		rep.Metrics[spec.name] = measured{Value: v, Unit: spec.unit}
	}
	return rep, nil
}

func (rep *report) fill(res *result) {
	rep.Attempted = res.attempted
	rep.Failed = res.failed
	rep.problems = res.problems
	rep.Correct = len(res.problems) == 0
}

func (rep *report) print() {
	mode := "untraced, end to end"
	if rep.traced {
		mode = "traced, per layer"
	}
	fmt.Printf("## %s (%s): ops=%d failed_ops=%d\n", rep.workload, mode, rep.Attempted, rep.Failed)
	fmt.Printf("%-32s %18s %-6s %-5s %-7s %s\n", "metric", "value", "unit", "clock", "better", "bound")
	for _, spec := range rep.specs {
		bound := "-"
		if spec.bound > 0 {
			bound = fmt.Sprintf("%g%%", spec.bound*100)
		}
		fmt.Printf("%-32s %18.6f %-6s %-5s %-7s %s", spec.name, rep.Metrics[spec.name].Value, spec.unit, spec.clock, spec.better, bound)
		if s, ok := rep.spread[spec.name]; ok {
			fmt.Printf("   spread q1=%.6g median=%.6g q3=%.6g", s[0], s[1], s[2])
		}
		fmt.Println()
	}
	for _, p := range rep.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
}

// write stores the JSON result, and the CPU profile of a traced run for
// `go tool pprof`, under dir.
func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := rep.workload
	if rep.traced {
		base += ".traced"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rep.profile != nil {
		return os.WriteFile(filepath.Join(dir, rep.workload+".cpu.pb.gz"), rep.profile, 0o644)
	}
	return nil
}

// runTraced performs the per-layer run of a workload: an untraced
// reference over the deterministic window, the traced and profiled run,
// the two-partition probe where it applies, and the layer drivers. It
// also enforces observer neutrality: tracing may not change a single
// event or simulated figure.
func runTraced(w workload, seed int64, seconds float64, detSegs int, scale, maxBenchPct float64) (*result, metrics, []byte, error) {
	det := detSegs
	ref, err := w.run(runConfig{seed: seed, detSegs: det, scale: scale})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("untraced reference: %w", err)
	}
	var profile bytes.Buffer
	tr, err := w.run(runConfig{seed: seed, seconds: seconds / 2, detSegs: det, scale: scale, traced: true, profile: &profile})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("traced run: %w", err)
	}
	res := tr
	res.problems = append(ref.problems, tr.problems...)
	res.attempted += ref.attempted
	res.failed += ref.failed

	layer := ref.windowMetrics()
	traced := tr.windowMetrics()
	for _, name := range []string{"sim.commit_p50_ns", "sim.commit_p99_ns", "sim.commit_samples", "sim.unavail_ms"} {
		if layer[name] != traced[name] {
			res.fail("tracing changed %s: %v untraced, %v traced", name, layer[name], traced[name])
		}
	}
	if ref.eventsAtEnd != tr.eventsAtEnd || ref.detOps != tr.detOps || ref.detSimNs != tr.detSimNs {
		res.fail("tracing changed the run: %d events, %d ops, %d sim ns untraced; %d, %d, %d traced",
			ref.eventsAtEnd, ref.detOps, ref.detSimNs, tr.eventsAtEnd, tr.detOps, tr.detSimNs)
	}
	for name, v := range tr.layer {
		layer[name] = v
	}
	layer["runtime.gc_cycles"] = float64(tr.gcCycles)
	layer["observers.trace_overhead_pct"] = 100 * (median(tr.segNsPerOp[:det])/median(ref.segNsPerOp[:det]) - 1)

	layer["sim.group_p2_speedup"] = 0
	if w.partitioned {
		p2, err := w.run(runConfig{seed: seed, detSegs: det, scale: scale, partitions: 2})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("two-partition probe: %w", err)
		}
		res.problems = append(res.problems, p2.problems...)
		if p2.eventsAtEnd != ref.eventsAtEnd || p2.detOps != ref.detOps {
			res.fail("two partitions changed the run: %d events, %d ops at one; %d, %d at two", ref.eventsAtEnd, ref.detOps, p2.eventsAtEnd, p2.detOps)
		}
		layer["sim.group_p2_speedup"] = median(ref.segNsPerOp) / median(p2.segNsPerOp)
	}

	fold, err := foldProfile(profile.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	for name, v := range fold {
		layer[name] = v
	}
	if share := fold["bench.cpu_pct"]; share > maxBenchPct {
		res.fail("the load generator and checker took %.1f%% of the CPU, above %g%%", share, maxBenchPct)
	}
	for name, v := range runLayerDrivers(seed, scale) {
		layer[name] = v
	}
	return res, layer, profile.Bytes(), nil
}
