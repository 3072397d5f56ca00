package main

import (
	"fmt"
	"math"
)

// runSelfcheck measures the benchmark against itself: two sets of every
// workload on the same tree, interleaved so that a slow minute on the
// host hits both sets, must agree on every end-to-end metric within
// that metric's own bound, and exactly on everything the simulated
// clock decides. A benchmark that cannot pass this cannot judge a
// change.
func runSelfcheck(seed int64, seconds float64) error {
	type set struct {
		res *result
		e2e metrics
		win metrics
	}
	var failures []string
	for _, w := range workloads {
		var sets [2]set
		for i := range sets {
			res, err := w.run(runConfig{seed: seed, seconds: seconds, setups: setupsPerRun})
			if err != nil {
				return fmt.Errorf("%s, set %d: %w", w.name, i+1, err)
			}
			for _, p := range res.problems {
				failures = append(failures, fmt.Sprintf("%s, set %d: %s", w.name, i+1, p))
			}
			sets[i] = set{res, res.endToEnd(), res.windowMetrics()}
			// The samples are large enough to show in the next run's
			// host_mem_mb if they stayed reachable.
			res.lat = nil
		}
		a, b := sets[0], sets[1]
		fmt.Printf("## %s: ops set1=%d set2=%d\n", w.name, a.res.attempted, b.res.attempted)
		fmt.Printf("%-20s %16s %16s %9s %7s\n", "metric", "set 1", "set 2", "differ", "bound")
		for _, spec := range endToEndSpecs {
			va, vb := a.e2e[spec.name], b.e2e[spec.name]
			// How much worse the worse of the two is, as a share of the
			// other: either order could be "parent" and "change".
			worse := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if worse > spec.bound {
				verdict = "  OUTSIDE BOUND"
				failures = append(failures, fmt.Sprintf("%s: %s differs by %.2f%% between the sets, bound %.0f%%", w.name, spec.name, 100*worse, 100*spec.bound))
			}
			fmt.Printf("%-20s %16.6f %16.6f %8.3f%% %6.0f%%%s\n", spec.name, va, vb, 100*worse, 100*spec.bound, verdict)
		}
		for i, s := range sets {
			q1, med, q3 := quartiles(s.res.segNsPerOp)
			fmt.Printf("set %d wall_ns_per_op over %d segments: q1=%.1f median=%.1f q3=%.1f; setup_s over %d: %v\n",
				i+1, len(s.res.segNsPerOp), q1, med, q3, len(s.res.setupS), s.res.setupS)
		}
		// The simulated clock: the deterministic windows must be one
		// and the same run.
		exact := a.res.detOps == b.res.detOps && a.res.detEvents == b.res.detEvents &&
			a.res.detSimNs == b.res.detSimNs && a.res.eventsAtEnd == b.res.eventsAtEnd
		for _, name := range []string{"sim.commit_p50_ns", "sim.commit_p99_ns", "sim.commit_samples", "sim.unavail_ms"} {
			exact = exact && a.win[name] == b.win[name]
		}
		fmt.Printf("deterministic window: %d ops, %d events, %d sim ns, p50 %.0f ns, p99 %.0f ns — identical in both sets: %v\n",
			a.res.detOps, a.res.detEvents, a.res.detSimNs, a.win["sim.commit_p50_ns"], a.win["sim.commit_p99_ns"], exact)
		if !exact {
			failures = append(failures, w.name+": the deterministic window differs between the sets")
		}
	}
	for _, f := range failures {
		fmt.Println("SELFCHECK FAILED:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: %d failures", len(failures))
	}
	fmt.Println("selfcheck passed")
	return nil
}
