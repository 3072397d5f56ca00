package bench

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"p4ce"
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
		if pt.ThroughputMs <= 0 {
			t.Errorf("goodput %s/r%d/s%d: throughput %v, want > 0",
				pt.Mode, pt.Replicas, pt.ItemSize, pt.ThroughputMs)
		}
		if pt.SimEnd <= pt.SimStart {
			t.Errorf("goodput %s/r%d/s%d: sim window %d..%d not monotone",
				pt.Mode, pt.Replicas, pt.ItemSize, pt.SimStart, pt.SimEnd)
		}
	}
	for _, pt := range rep.Latency.Points {
		if !(pt.P50Lat <= pt.P99Lat && pt.P99Lat <= pt.P999Lat && pt.P999Lat <= pt.MaxLat) {
			t.Errorf("latency %s/r%d@%.2f: percentiles not ordered: p50=%d p99=%d p999=%d max=%d",
				pt.Mode, pt.Replicas, pt.OfferedMps, pt.P50Lat, pt.P99Lat, pt.P999Lat, pt.MaxLat)
		}
	}

	// Each section key names its own tables, and together they are
	// every table of the report, in report order.
	var perKey, all []string
	for _, key := range SectionKeys() {
		tables, err := rep.Tables(key)
		if err != nil || len(tables) == 0 {
			t.Errorf("Tables(%q) = %d tables, %v", key, len(tables), err)
		}
		for _, tb := range tables {
			if tb.Name != key && !strings.HasPrefix(tb.Name, key+".") {
				t.Errorf("Tables(%q) rendered %q", key, tb.Name)
			}
			perKey = append(perKey, tb.Name)
		}
	}
	tables, err := rep.Tables()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		all = append(all, tb.Name)
	}
	if !slices.Equal(perKey, all) {
		t.Errorf("tables by section key %v, want %v", perKey, all)
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

	// The on-disk schema is the struct tags of the runner rows and
	// configs: a renamed, retagged or reordered field must not pass
	// unnoticed, so parse-then-marshal reproduces the built report and
	// both committed baselines byte for byte.
	blobs := map[string][]byte{"built smoke report": blob}
	for _, path := range []string{"../../bench/BENCH_baseline.json", "../../bench/BENCH_smoke_baseline.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blobs[path] = b
	}
	for name, b := range blobs {
		parsed, err := ParseReport(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("%s: Marshal(ParseReport(b)) != b", name)
		}
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
		pt.P99Lat = time.Duration(math.Ceil(float64(pt.P99Lat) * (1 + RegressionThreshold)))
		if pt.P999Lat < pt.P99Lat {
			pt.P999Lat, pt.MaxLat = pt.P99Lat, pt.P99Lat
		}
		if regs := CompareReports(base, cand); len(regs) == 0 {
			t.Fatal("10% p99 rise not flagged")
		}
	})
	t.Run("failover rise fails", func(t *testing.T) {
		cand := degrade()
		cand.Failover.Modes[0].LeaderCrash = time.Duration(math.Ceil(
			float64(cand.Failover.Modes[0].LeaderCrash) * (1 + RegressionThreshold)))
		if regs := CompareReports(base, cand); len(regs) == 0 {
			t.Fatal("10% leader-crash failover rise not flagged")
		}
	})
	t.Run("events rise fails", func(t *testing.T) {
		// Each section that records kernel events gates them: a 10% rise
		// in the first row is exactly one regression, on its events.
		up := func(n *uint64) { *n = uint64(math.Ceil(float64(*n) * (1 + RegressionThreshold))) }
		for _, tc := range []struct {
			want string
			bump func(r *Report)
		}{
			{"sharded/x1/events", func(r *Report) { up(&r.Sharded.Points[0].Events) }},
			{"scaling/p1/events", func(r *Report) { up(&r.Scaling.Points[0].Events) }},
			{"fabric/racks0/events", func(r *Report) { up(&r.Fabric.Points[0].Events) }},
			{"timeline/replica-flap/events", func(r *Report) { up(&r.Timeline.Points[0].Events) }},
		} {
			cand := degrade()
			tc.bump(cand)
			regs := CompareReports(base, cand)
			if len(regs) != 1 || regs[0].Metric != tc.want {
				t.Errorf("10%% events rise: regressions %v, want exactly one named %s", regs, tc.want)
			}
		}
	})
	t.Run("burst and ablation rows fail", func(t *testing.T) {
		// Fig. 7 and the three single-row ablations each gate one metric:
		// a 10% degradation of it is exactly one regression.
		worse := func(d *time.Duration) { *d = time.Duration(math.Ceil(float64(*d) * (1 + RegressionThreshold))) }
		for _, tc := range []struct {
			want    string
			degrade func(r *Report)
		}{
			{"burst/Mu/r2/k1/burst_lat_ns", func(r *Report) { worse(&r.Burst.Points[0].BurstLat) }},
			{"ablation/ack_placement/r4/ingress_drop_per_s", func(r *Report) {
				r.Ablation.AckPlacement[0].IngressDropRate *= 1 - RegressionThreshold
			}},
			{"ablation/async_reconfig/n3/async_failover_ns", func(r *Report) {
				worse(&r.Ablation.AsyncReconfig[0].AsyncFailover)
			}},
			{"ablation/credit/r2/throughput_ops_per_s", func(r *Report) {
				r.Ablation.Credit[0].ThroughputOps *= 1 - RegressionThreshold
			}},
		} {
			cand := degrade()
			tc.degrade(cand)
			regs := CompareReports(base, cand)
			if len(regs) != 1 || regs[0].Metric != tc.want {
				t.Errorf("10%% degradation: regressions %v, want exactly one named %s", regs, tc.want)
			}
		}
	})
	t.Run("missing point fails", func(t *testing.T) {
		// Drop the first row of each section in turn: exactly one
		// regression, named <section>/<key> of the dropped row.
		for _, tc := range []struct {
			want string
			drop func(r *Report)
		}{
			{"goodput/Mu/r2/s64", func(r *Report) { r.Goodput.Points = r.Goodput.Points[1:] }},
			{"latency/Mu/r2@0.500", func(r *Report) { r.Latency.Points = r.Latency.Points[1:] }},
			{"burst/Mu/r2/k1", func(r *Report) { r.Burst.Points = r.Burst.Points[1:] }},
			{"failover/Mu", func(r *Report) { r.Failover.Modes = r.Failover.Modes[1:] }},
			{"ablation/Mu/r2", func(r *Report) { r.Ablation.MaxConsensus = r.Ablation.MaxConsensus[1:] }},
			{"ablation/credit/r2", func(r *Report) { r.Ablation.Credit = nil }},
			{"sharded/x1", func(r *Report) { r.Sharded.Points = r.Sharded.Points[1:] }},
			{"batch_sweep/b1", func(r *Report) { r.BatchSweep.Points = r.BatchSweep.Points[1:] }},
			{"breakdown/Mu/r2", func(r *Report) { r.Breakdown.Points = r.Breakdown.Points[1:] }},
			{"scaling/p1", func(r *Report) { r.Scaling.Points = r.Scaling.Points[1:] }},
			{"fabric/racks0", func(r *Report) { r.Fabric.Points = r.Fabric.Points[1:] }},
			{"timeline/replica-flap", func(r *Report) { r.Timeline.Points = r.Timeline.Points[1:] }},
		} {
			cand := degrade()
			tc.drop(cand)
			regs := CompareReports(base, cand)
			if len(regs) != 1 || regs[0].Metric != tc.want {
				t.Errorf("dropping %s: regressions %v, want exactly one named %s", tc.want, regs, tc.want)
			}
		}
	})
	t.Run("sub-threshold wiggle passes", func(t *testing.T) {
		cand := degrade()
		for i := range cand.Goodput.Points {
			cand.Goodput.Points[i].GoodputGBps *= 0.95
			cand.Goodput.Points[i].ThroughputMs *= 0.95
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
		t.Error("a v6 report accepted: only the current schema is valid")
	}
	if err := mutate(func(r *Report) { r.Goodput.Points[0].ThroughputMs = 0 }); err == nil {
		t.Error("zero throughput accepted")
	}
	if err := mutate(func(r *Report) {
		r.Goodput.Points[0].SimEnd = r.Goodput.Points[0].SimStart
	}); err == nil {
		t.Error("empty sim window accepted")
	}
	if err := mutate(func(r *Report) { r.Latency.Points[0].P50Lat = r.Latency.Points[0].MaxLat + 1 }); err == nil {
		t.Error("disordered percentiles accepted")
	}
	if err := mutate(func(r *Report) { r.Failover.Modes = nil }); err == nil {
		t.Error("empty failover section accepted")
	}

	// Modes travel by name: "Mu" and "P4CE" round-trip, any other name
	// fails the parse.
	blob, _ := base.Marshal()
	back, err := ParseReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	gp := back.Goodput.Points
	if gp[0].Mode != p4ce.ModeMu || gp[len(gp)-1].Mode != p4ce.ModeP4CE {
		t.Errorf("modes parsed as %v..%v, want Mu..P4CE", gp[0].Mode, gp[len(gp)-1].Mode)
	}
	raft := bytes.Replace(blob, []byte(`"mode": "Mu"`), []byte(`"mode": "Raft"`), 1)
	if _, err := ParseReport(raft); err == nil {
		t.Error(`"mode": "Raft" accepted`)
	}
}
