package bench

import (
	"testing"
	"time"

	"p4ce"
)

func TestSteadyStateBothModes(t *testing.T) {
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		cl, leader, err := Steady(p4ce.Options{Nodes: 3, Mode: mode, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if leader.ID() != 0 || !leader.IsLeader() {
			t.Fatalf("%v: bad leader %v", mode, leader)
		}
		if (mode == p4ce.ModeP4CE) != leader.Accelerated() {
			t.Fatalf("%v: acceleration = %v", mode, leader.Accelerated())
		}
		_ = cl
	}
}

func TestClosedLoopProducesThroughput(t *testing.T) {
	cl, leader, err := Steady(p4ce.Options{Nodes: 3, Mode: p4ce.ModeP4CE, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClosedLoop(cl, leader, 64, 16, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.MeanLat <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// Shape check, §V-C: P4CE sustains ≈2.3 M consensus/s on 64 B values and
// its advantage over Mu grows with the replica count (≈1.9× at 2, ≈3.8×
// at 4).
func TestMaxConsensusShape(t *testing.T) {
	rows, err := RunMaxConsensus([]int{2, 4}, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]float64{} // {mode(0=Mu,1=P4CE), replicas} → rate
	for _, r := range rows {
		m := 0
		if r.Mode == p4ce.ModeP4CE {
			m = 1
		}
		byKey[[2]int{m, r.Replicas}] = r.ConsensusPerS
	}
	p2, p4 := byKey[[2]int{1, 2}], byKey[[2]int{1, 4}]
	m2, m4 := byKey[[2]int{0, 2}], byKey[[2]int{0, 4}]
	if p2 < 1.9e6 || p2 > 2.7e6 {
		t.Fatalf("P4CE @2 replicas = %.0f/s, want ≈2.3M", p2)
	}
	// P4CE's rate is independent of the replica count.
	if ratio := p4 / p2; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("P4CE rate varies with replicas: %.0f vs %.0f", p2, p4)
	}
	if speed := p2 / m2; speed < 1.6 || speed > 2.3 {
		t.Fatalf("speedup @2 = %.2f, want ≈1.9", speed)
	}
	if speed := p4 / m4; speed < 3.2 || speed > 4.5 {
		t.Fatalf("speedup @4 = %.2f, want ≈3.8", speed)
	}
}

// Shape check, Fig. 5: P4CE saturates the leader link above ≈512 B while
// Mu divides it by the replica count.
func TestGoodputShape(t *testing.T) {
	cfg := GoodputConfig{
		Replicas:    []int{2, 4},
		Sizes:       []int{64, 512, 1024, 8192},
		Depth:       16,
		Warmup:      200,
		Ops:         1500,
		Seed:        1,
		LeaderCores: 8,
	}
	points, err := RunGoodput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(mode p4ce.Mode, repl, size int) float64 {
		for _, p := range points {
			if p.Mode == mode && p.Replicas == repl && p.ItemSize == size {
				return p.GoodputGBps
			}
		}
		t.Fatalf("missing point %v/%d/%d", mode, repl, size)
		return 0
	}
	// Large items: P4CE near line rate (12.5 GB/s raw, ≈11 GB/s goodput).
	if g := get(p4ce.ModeP4CE, 4, 8192); g < 9 || g > 12.5 {
		t.Fatalf("P4CE 8K goodput = %.2f GB/s, want ≈11", g)
	}
	// The paper reaches line rate from ≈500 B items.
	if g := get(p4ce.ModeP4CE, 4, 512); g < 8.5 {
		t.Fatalf("P4CE 512B goodput = %.2f GB/s, want ≥8.5 (line-rate knee)", g)
	}
	// Mu divides the leader link: ≈2× and ≈4× gaps.
	r2 := get(p4ce.ModeP4CE, 2, 8192) / get(p4ce.ModeMu, 2, 8192)
	if r2 < 1.7 || r2 > 2.4 {
		t.Fatalf("P4CE/Mu @2 replicas @8K = %.2f, want ≈2", r2)
	}
	r4 := get(p4ce.ModeP4CE, 4, 8192) / get(p4ce.ModeMu, 4, 8192)
	if r4 < 3.3 || r4 > 4.8 {
		t.Fatalf("P4CE/Mu @4 replicas @8K = %.2f, want ≈4", r4)
	}
	// Small items are CPU-bound, not bandwidth-bound: goodput well below
	// the link but still ≈2× apart at 2 replicas.
	if r := get(p4ce.ModeP4CE, 2, 64) / get(p4ce.ModeMu, 2, 64); r < 1.5 {
		t.Fatalf("P4CE/Mu @64B = %.2f, want ≥1.5", r)
	}
}

// Shape check, Fig. 7: Mu's burst latency degrades faster than P4CE's;
// at bursts of 100 the paper reports P4CE at half of Mu.
func TestBurstLatencyShape(t *testing.T) {
	points, err := RunBurstLatency(BurstConfig{Replicas: 2, Sizes: []int{1, 10, 100}, Rounds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(mode p4ce.Mode, k int) time.Duration {
		for _, p := range points {
			if p.Mode == mode && p.BurstSize == k {
				return p.BurstLat
			}
		}
		t.Fatalf("missing point %v/%d", mode, k)
		return 0
	}
	ratio := float64(get(p4ce.ModeMu, 100)) / float64(get(p4ce.ModeP4CE, 100))
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("Mu/P4CE burst-100 latency = %.2f, want ≈2", ratio)
	}
	// Latency grows with burst size for both.
	for _, mode := range []p4ce.Mode{p4ce.ModeMu, p4ce.ModeP4CE} {
		if get(mode, 100) <= get(mode, 1) {
			t.Fatalf("%v: burst latency did not grow with burst size", mode)
		}
	}
}

// Shape check, Table IV.
func TestFailoverShape(t *testing.T) {
	cfg := DefaultFailoverConfig()
	mu, err := RunFailover(p4ce.ModeMu, cfg)
	if err != nil {
		t.Fatalf("Mu: %v", err)
	}
	pc, err := RunFailover(p4ce.ModeP4CE, cfg)
	if err != nil {
		t.Fatalf("P4CE: %v", err)
	}
	within := func(name string, got, lo, hi time.Duration) {
		if got < lo || got > hi {
			t.Errorf("%s = %v, want in [%v, %v]", name, got, lo, hi)
		}
	}
	within("P4CE group config", pc.GroupConfig, 39*time.Millisecond, 45*time.Millisecond)
	within("Mu replica crash", mu.ReplicaCrash, 20*time.Microsecond, 500*time.Microsecond)
	within("P4CE replica crash", pc.ReplicaCrash, 40*time.Millisecond, 42*time.Millisecond)
	within("Mu leader crash", mu.LeaderCrash, 500*time.Microsecond, 2*time.Millisecond)
	within("P4CE leader crash", pc.LeaderCrash, 40*time.Millisecond, 44*time.Millisecond)
	within("Mu switch crash", mu.SwitchCrash, 50*time.Millisecond, 70*time.Millisecond)
	within("P4CE switch crash", pc.SwitchCrash, 50*time.Millisecond, 70*time.Millisecond)
}

// Shape check, §IV-D Lesson: ingress-side ACK dropping scales the
// aggregation rate with the replica count.
func TestAckPlacementShape(t *testing.T) {
	res, err := RunAckAggregationAblation(4, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 2 {
		t.Fatalf("ingress/egress drop speedup = %.2f, want ≥2 with 4 replicas", res.Speedup)
	}
}

func TestAsyncReconfigShape(t *testing.T) {
	res, err := RunAsyncReconfigAblation(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncFailover < 40*time.Millisecond {
		t.Fatalf("sync fail-over = %v, want ≥40ms", res.SyncFailover)
	}
	if res.AsyncFailover > 3*time.Millisecond {
		t.Fatalf("async fail-over = %v, want Mu-like (<3ms)", res.AsyncFailover)
	}
}

func TestCreditAblation(t *testing.T) {
	res, err := RunCreditAblation(2, 1000, 3*time.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputOps <= 0 {
		t.Fatal("no throughput with a slow replica")
	}
}
