package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testScale shrinks every segment 200-fold, so all four workloads, the
// traced runs and the layer drivers fit in a few seconds.
const testScale = 1.0 / 200

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpecs pins BENCHMARK.json to the tables the
// program prints from, and both to the contract's limits.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.Workloads) > 8 {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		seen[n] = true
	}
	for i, w := range doc.Workloads {
		checkName(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec.go (or the reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndSpecs) || len(doc.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(doc.EndToEnd), len(endToEndSpecs))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		checkName(m.Name, m.Unit)
		s := endToEndSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in spec.go", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayerSpecs) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(doc.PerLayer), len(perLayerSpecs))
	}
	for i, m := range doc.PerLayer {
		checkName(m.Name, m.Unit)
		s := perLayerSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in spec.go", i, m, s)
		}
	}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if s.clock != "host" && s.clock != "sim" {
			t.Errorf("%s: clock %q", s.name, s.clock)
		}
	}
}

// TestReadmeListsEveryMetric keeps the README's metric table complete.
func TestReadmeListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !strings.Contains(string(raw), "`"+s.name+"`") {
			t.Errorf("README.md does not mention %s", s.name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(string(raw), "`"+w.name+"`") {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
}

// TestWorkloadsRepeatExactly runs every workload untraced twice at one
// seed over the deterministic window only: the output checks must pass,
// every end-to-end metric must be there, and everything the simulated
// clock decides must be identical.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				res, err := w.run(runConfig{seed: 7, detSegs: 1, scale: testScale})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range res.problems {
					t.Errorf("run %d: %s", i, p)
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Errorf("run %d: %d attempted, %d failed", i, res.attempted, res.failed)
				}
				runs[i] = res
			}
			a, b := runs[0].endToEnd(), runs[1].endToEnd()
			for _, s := range endToEndSpecs {
				va, ok := a[s.name]
				if !ok || math.IsNaN(va) || va <= 0 {
					t.Errorf("%s = %v", s.name, va)
				}
				if s.clock == "sim" && va != b[s.name] {
					t.Errorf("%s differs between same-seed runs: %v, %v", s.name, va, b[s.name])
				}
			}
			if len(a) != len(endToEndSpecs) {
				t.Errorf("%d end-to-end metrics produced, %d declared", len(a), len(endToEndSpecs))
			}
			wa, wb := runs[0].windowMetrics(), runs[1].windowMetrics()
			for _, name := range []string{"sim.commit_p50_ns", "sim.commit_p99_ns", "sim.commit_samples", "sim.unavail_ms"} {
				if wa[name] != wb[name] || wa[name] <= 0 {
					t.Errorf("%s: %v, %v", name, wa[name], wb[name])
				}
			}
			if runs[0].eventsAtEnd != runs[1].eventsAtEnd {
				t.Errorf("EventsProcessed differs: %d, %d", runs[0].eventsAtEnd, runs[1].eventsAtEnd)
			}
		})
	}
}

// TestTracedRunsAreConsistent performs the per-layer run of every
// workload (reference, traced, two-partition probe, profile fold, layer
// drivers) and checks the numbers against each other.
func TestTracedRunsAreConsistent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// A little wall-clock budget, so the profile has samples.
			res, layer, _, err := runTraced(w, 7, 0.6, 1, testScale, 100)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Error(p)
			}
			if len(layer) != len(perLayerSpecs) {
				t.Errorf("%d per-layer metrics produced, %d declared", len(layer), len(perLayerSpecs))
			}
			var cpu, stages float64
			for _, s := range perLayerSpecs {
				v, ok := layer[s.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", s.name, v)
				}
				switch {
				case strings.HasSuffix(s.name, ".cpu_pct"):
					cpu += v
				case strings.HasPrefix(s.name, "stage.") && s.name != "stage.e2e_ns":
					stages += v
				case strings.HasSuffix(s.name, "_ns") && strings.HasPrefix(s.source, "driver") && v <= 0:
					t.Errorf("layer driver %s measured %v", s.name, v)
				}
			}
			if math.Abs(cpu-100) > 1 {
				t.Errorf("cpu shares sum to %.2f", cpu)
			}
			if stages != layer["stage.e2e_ns"] || stages <= 0 {
				t.Errorf("stages sum to %v, stage.e2e_ns is %v", stages, layer["stage.e2e_ns"])
			}
			switch w.name {
			case "mu-large":
				for name, v := range layer {
					if strings.HasPrefix(name, "p4ce.") && !strings.HasSuffix(name, "cpu_pct") && v != 0 {
						t.Errorf("%s = %v on the Mu baseline", name, v)
					}
				}
			case "sharded-batch":
				if layer["mu.ops_per_entry"] <= 1 {
					t.Errorf("mu.ops_per_entry = %v, the batcher did not engage", layer["mu.ops_per_entry"])
				}
				if layer["sim.group_p2_speedup"] <= 0 {
					t.Errorf("sim.group_p2_speedup = %v", layer["sim.group_p2_speedup"])
				}
			case "fabric-failover":
				if layer["p4ce.acks_up_per_op"] <= 0 || layer["sim.unavail_ms"] < 40 {
					t.Errorf("acks_up_per_op = %v, unavail_ms = %v", layer["p4ce.acks_up_per_op"], layer["sim.unavail_ms"])
				}
			}
			if w.name != "sharded-batch" && w.name != "fabric-failover" && layer["mu.ops_per_entry"] != 1 {
				t.Errorf("mu.ops_per_entry = %v without batching", layer["mu.ops_per_entry"])
			}
		})
	}
}

// TestFoldChargesLibraryTimeToItsCaller pins the profile fold's rule.
func TestFoldChargesLibraryTimeToItsCaller(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"hash/crc32.ieeeCLMUL", "hash/crc32.ChecksumIEEE", "p4ce/internal/mu.decodeEntryView"}, "mu"},
		{[]string{"container/heap.down", "p4ce/internal/sim.(*sched).step"}, "sim"},
		{[]string{"runtime.memmove", "p4ce/internal/roce.(*Packet).MarshalInto"}, "runtime"},
		{[]string{"p4ce/internal/tofino.(*Table[go.shape.uint32,go.shape.*p4ce/internal/p4ce.group]).Lookup"}, "tofino"},
		{[]string{"p4ce.(*Client).Submit", "main.runEpisode.func1"}, "facade"},
		{[]string{"main.(*shardLoop).complete", "p4ce/internal/mu.(*Node).commit"}, "bench"},
		{[]string{"p4ce/internal/cm.(*Agent).handle"}, "core"},
		{[]string{"p4ce/internal/otrace.(*Tracer).Mark", "p4ce/internal/rnic.(*QP).post"}, "observers"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "runtime"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("%v charged to %s, want %s", c.stack, got, c.want)
		}
	}
}
