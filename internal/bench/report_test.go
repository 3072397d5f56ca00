package bench

import (
	"math"
	"testing"
)

// buildSmokeReport runs the smoke profile once per test binary; the
// sweep is deterministic so sharing it between tests is sound.
func buildSmokeReport(t *testing.T) *Report {
	t.Helper()
	rep, err := BuildReport(1, SmokeProfile())
	if err != nil {
		t.Fatalf("BuildReport(smoke): %v", err)
	}
	return rep
}

// TestSmokeReport is the bench smoke test: the smoke profile must
// produce non-zero throughput, monotone sim timestamps and JSON that
// round-trips through the schema validator.
func TestSmokeReport(t *testing.T) {
	rep := buildSmokeReport(t)

	if rep.Profile != "smoke" || rep.Seed != 1 {
		t.Fatalf("report identity = (%q, %d), want (smoke, 1)", rep.Profile, rep.Seed)
	}
	if len(rep.Goodput.Points) == 0 {
		t.Fatal("no goodput points")
	}
	for _, pt := range rep.Goodput.Points {
		if pt.ThroughputMops <= 0 {
			t.Errorf("goodput %s/r%d/s%d: throughput %v, want > 0",
				pt.Mode, pt.Replicas, pt.ItemSize, pt.ThroughputMops)
		}
		if pt.SimEndNs <= pt.SimStartNs {
			t.Errorf("goodput %s/r%d/s%d: sim window %d..%d not monotone",
				pt.Mode, pt.Replicas, pt.ItemSize, pt.SimStartNs, pt.SimEndNs)
		}
	}
	for _, pt := range rep.Latency.Points {
		if !(pt.P50Ns <= pt.P99Ns && pt.P99Ns <= pt.P999Ns && pt.P999Ns <= pt.MaxNs) {
			t.Errorf("latency %s/r%d@%.2f: percentiles not ordered: p50=%d p99=%d p999=%d max=%d",
				pt.Mode, pt.Replicas, pt.OfferedMops, pt.P50Ns, pt.P99Ns, pt.P999Ns, pt.MaxNs)
		}
	}

	blob, err := rep.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := ParseReport(blob)
	if err != nil {
		t.Fatalf("ParseReport(Marshal(rep)): %v", err)
	}
	if back.Profile != rep.Profile || back.Seed != rep.Seed ||
		len(back.Goodput.Points) != len(rep.Goodput.Points) ||
		len(back.Latency.Points) != len(rep.Latency.Points) {
		t.Fatal("round-tripped report lost data")
	}
}

// TestReportReproducible asserts the bit-reproducibility contract the
// committed baseline depends on: same profile + same seed = same bytes.
func TestReportReproducible(t *testing.T) {
	a, err := BuildReport(7, SmokeProfile())
	if err != nil {
		t.Fatalf("first build: %v", err)
	}
	b, err := BuildReport(7, SmokeProfile())
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	blobA, _ := a.Marshal()
	blobB, _ := b.Marshal()
	if string(blobA) != string(blobB) {
		t.Fatal("two smoke reports with the same seed differ")
	}
}

// TestCompareDetectsRegression degrades a copy of a report by exactly
// the threshold in each direction-sensitive section and checks the gate
// fires; an identical copy must pass.
func TestCompareDetectsRegression(t *testing.T) {
	base := buildSmokeReport(t)

	if regs := CompareReports(base, base); len(regs) != 0 {
		t.Fatalf("self-comparison flagged %d regressions: %v", len(regs), regs)
	}

	degrade := func() *Report {
		blob, _ := base.Marshal()
		cp, err := ParseReport(blob)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		return cp
	}

	t.Run("goodput drop fails", func(t *testing.T) {
		cand := degrade()
		cand.Goodput.Points[0].GoodputGBps *= 1 - RegressionThreshold
		if regs := CompareReports(base, cand); len(regs) == 0 {
			t.Fatal("10% goodput drop not flagged")
		}
	})
	t.Run("latency rise fails", func(t *testing.T) {
		cand := degrade()
		pt := &cand.Latency.Points[0]
		pt.P99Ns = int64(math.Ceil(float64(pt.P99Ns) * (1 + RegressionThreshold)))
		if pt.P999Ns < pt.P99Ns {
			pt.P999Ns, pt.MaxNs = pt.P99Ns, pt.P99Ns
		}
		if regs := CompareReports(base, cand); len(regs) == 0 {
			t.Fatal("10% p99 rise not flagged")
		}
	})
	t.Run("failover rise fails", func(t *testing.T) {
		cand := degrade()
		cand.Failover.Modes[0].LeaderCrashNs = int64(math.Ceil(
			float64(cand.Failover.Modes[0].LeaderCrashNs) * (1 + RegressionThreshold)))
		if regs := CompareReports(base, cand); len(regs) == 0 {
			t.Fatal("10% leader-crash failover rise not flagged")
		}
	})
	t.Run("missing point fails", func(t *testing.T) {
		cand := degrade()
		cand.Goodput.Points = cand.Goodput.Points[1:]
		if regs := CompareReports(base, cand); len(regs) == 0 {
			t.Fatal("dropped goodput point not flagged")
		}
	})
	t.Run("sub-threshold wiggle passes", func(t *testing.T) {
		cand := degrade()
		for i := range cand.Goodput.Points {
			cand.Goodput.Points[i].GoodputGBps *= 0.95
			cand.Goodput.Points[i].ThroughputMops *= 0.95
		}
		if regs := CompareReports(base, cand); len(regs) != 0 {
			t.Fatalf("5%% wiggle flagged: %v", regs)
		}
	})
}

// TestProfileByName covers the CLI's profile resolution.
func TestProfileByName(t *testing.T) {
	for _, name := range []string{"full", "quick", "smoke"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q) = (%q, %v)", name, p.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("ProfileByName(nope) did not fail")
	}
}

// TestValidateRejectsBadReports exercises the validator's invariants.
func TestValidateRejectsBadReports(t *testing.T) {
	base := buildSmokeReport(t)
	mutate := func(f func(*Report)) error {
		blob, _ := base.Marshal()
		cp, _ := ParseReport(blob)
		f(cp)
		return cp.Validate()
	}
	if err := mutate(func(r *Report) { r.SchemaVersion = 99 }); err == nil {
		t.Error("wrong schema version accepted")
	}
	if err := mutate(func(r *Report) { r.SchemaVersion = SchemaVersion - 1 }); err == nil {
		t.Error("a v5 report accepted: only the current schema is valid")
	}
	if err := mutate(func(r *Report) { r.Goodput.Points[0].ThroughputMops = 0 }); err == nil {
		t.Error("zero throughput accepted")
	}
	if err := mutate(func(r *Report) {
		r.Goodput.Points[0].SimEndNs = r.Goodput.Points[0].SimStartNs
	}); err == nil {
		t.Error("empty sim window accepted")
	}
	if err := mutate(func(r *Report) { r.Latency.Points[0].P50Ns = r.Latency.Points[0].MaxNs + 1 }); err == nil {
		t.Error("disordered percentiles accepted")
	}
	if err := mutate(func(r *Report) { r.Failover.Modes = nil }); err == nil {
		t.Error("empty failover section accepted")
	}
}
