package bench

import (
	"runtime"
	"testing"

	"p4ce"
)

// TestZeroAllocSteadyState enforces the pooled hot path's headline
// guarantee: once the free lists are warm, one committed operation on
// the P4CE path — leader propose, switch scatter, replica ACKs, switch
// gather, aggregated ACK, commit, apply on every machine — performs
// zero heap allocations, with metrics enabled or disabled — and with
// the full telemetry pipeline (sim-time sampler, SLO engine, alert
// log) running on top, since the sampler's ring series and the SLO
// engine's integer windows are preallocated at Start.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-op warmup")
	}
	cases := []struct {
		name      string
		metrics   bool
		telemetry bool
	}{
		{"metrics-on", true, false},
		{"metrics-off", false, false},
		{"telemetry-on", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, oneOp := warmSteady(t, p4ce.Options{
				Nodes:           5, // leader + 4 replicas
				Mode:            p4ce.ModeP4CE,
				Seed:            7,
				EnableMetrics:   tc.metrics,
				EnableTelemetry: tc.telemetry,
			})
			avg := testing.AllocsPerRun(500, func() { oneOp(t) })
			if avg != 0 {
				t.Fatalf("steady-state committed op allocates %.3f objects/op, want 0", avg)
			}
		})
	}
	// Mu's direct transport posts one write per replica: its per-path
	// completions ride pooled records, not a closure per path per op.
	t.Run("mu", func(t *testing.T) {
		_, oneOp := warmSteady(t, p4ce.Options{Nodes: 5, Mode: p4ce.ModeMu, Seed: 7, EnableMetrics: true})
		if avg := testing.AllocsPerRun(500, func() { oneOp(t) }); avg != 0 {
			t.Fatalf("steady-state committed Mu op allocates %.3f objects/op, want 0", avg)
		}
	})
}

// TestEventBudgetSteadyState pins the kernel events one committed
// 64-byte operation costs in steady state, on the harness of
// TestZeroAllocSteadyState, which drives the kernel one Step at a time.
// events_per_op is what the simulator's wall-clock cost scales with, so
// a change that adds or removes events on the hot path must update the
// budget here; the sim.events.* counters of a metrics-enabled run say
// which site moved. An event is a heap entry: the kernel queues a run of
// same-instant pushes with adjacent keys as one entry, and Processed
// counts it once, while the sim.events.* counters count every callback.
// Per P4CE op, 17 callbacks take 8 entries: the leader's write frame
// (1 delivery, with switch ingress inside it), the four copies (4
// egress emits, 1 entry), their deliveries to the replicas (4, 1
// entry: the shard's machines share one domain), the four replica
// ACKs to the switch (4, 1 entry), the aggregated ACK's egress emit
// and its delivery (1 each), one leader ACK step and one post step. The
// NIC's transmit pipeline is booked on the wire, so it costs none. With
// three nodes the same 8 entries carry 11 callbacks (two copies, two
// ACKs). Per Mu op, four writes out and four ACKs back each cross the
// switch as unicasts, 250 ns of leader CPU apart, so nothing shares an
// entry: 16 deliveries, 8 egress emits, 4 ACK steps and one post step.
// On the two-rack leaf-spine fabric, with the leader and two replicas
// on rack 0 and two replicas on rack 1, a P4CE op costs 18 entries: the
// write's one copy up to a spine and the spine's forward down to rack
// 1's ToR, and rack 1's aggregated ACK up and on down to rack 0's ToR,
// are four more frames, each an egress emit and a delivery with the
// next switch's ingress inside it. Switches share one domain, so the
// four deliveries are keyed in the kernel's arrival lane; without it
// each cost an ingress step as well, 22 entries per op.
// The slack covers the odd timer tick.
func TestEventBudgetSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-op warmup")
	}
	const ops = 1000
	cases := []struct {
		name     string
		nodes    int
		mode     p4ce.Mode
		topology *p4ce.Topology
		min, max uint64
	}{
		{"P4CE", 5, p4ce.ModeP4CE, nil, 8 * ops, 8*ops + 50},
		{"Mu", 5, p4ce.ModeMu, nil, 29 * ops, 29*ops + 50},
		{"P4CE-3nodes", 3, p4ce.ModeP4CE, nil, 8 * ops, 8*ops + 50},
		{"P4CE-leaf-spine", 5, p4ce.ModeP4CE, &p4ce.Topology{Racks: 2, Spines: 2}, 18 * ops, 18*ops + 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, oneOp := warmSteady(t, p4ce.Options{Nodes: tc.nodes, Mode: tc.mode, Seed: 7, Topology: tc.topology})
			ev0 := cl.EventsProcessed()
			for i := 0; i < ops; i++ {
				oneOp(t)
			}
			if n := cl.EventsProcessed() - ev0; n < tc.min || n > tc.max {
				t.Fatalf("%d committed ops took %d events, want [%d, %d]", ops, n, tc.min, tc.max)
			}
		})
	}
	// 4 KiB ops cross the wire as five segments per write. A 4 KiB op
	// takes longer, so the timer ticks take more of the slack. Touching
	// payload bytes fewer times must not move an event.
	for _, tc := range []struct {
		name     string
		mode     p4ce.Mode
		min, max uint64
	}{
		// Each of the four writes: 10 deliveries and 5 egress emits out,
		// 2 and 1 for its ACK back; plus 4 ACK steps and one post step.
		{"Mu-4KiB", p4ce.ModeMu, 77 * ops, 77*ops + 100},
		// 53 callbacks in 20 entries. Each of the five segments: its
		// delivery to the switch, its four copies (1 entry) and their
		// deliveries (1 entry); then the four replica ACKs (1 entry),
		// the aggregated ACK's emit and delivery, one ACK step and one
		// post step.
		{"P4CE-4KiB", p4ce.ModeP4CE, 20 * ops, 20*ops + 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, oneOp := warmSteadySize(t, p4ce.Options{Nodes: 5, Mode: tc.mode, Seed: 7}, 4096)
			ev0 := cl.EventsProcessed()
			for i := 0; i < ops; i++ {
				oneOp(t)
			}
			if n := cl.EventsProcessed() - ev0; n < tc.min || n > tc.max {
				t.Fatalf("%d committed 4 KiB ops took %d events, want [%d, %d]", ops, n, tc.min, tc.max)
			}
		})
	}
}

// TestEntryChecksumCensus counts the full-entry checksums Mu's log
// consumers compute per committed 4 KiB op on five nodes. Each of the
// four replicas receives the 4 129-byte entry as five segments. A
// replica that re-checked the entry on every landed segment would
// compute 5 × 4 = 20; checking it on the segment that lands its header
// and again on the one that lands its trailer is 2 × 4 = 8. The one
// exception is the entry after a ring wrap: while a followed wrap
// marker is pending the consumer skips nothing, so that entry costs
// 3 × 4 = 12 more, and 1 000 ops of 4 129 bytes cross at most one wrap
// of the 4 MiB ring.
//
// It also counts the bytes the buffer pool zero-fills. Every pooled
// buffer on the 4 KiB Mu path is written in full before it is read —
// the NIC's transmit frames by MarshalInto, the leader's cache copy by
// EncodeEntryInto, the replica copies by Clone — so none is zeroed.
func TestEntryChecksumCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-op warmup")
	}
	const ops = 1000
	cl, oneOp := warmSteadySize(t, p4ce.Options{Nodes: 5, Mode: p4ce.ModeMu, Seed: 7}, 4096)
	sums := func() (n uint64) {
		for _, node := range cl.Nodes() {
			n += node.Protocol().EntryChecksums()
		}
		return n
	}
	pool := cl.Node(0).Protocol().NIC().Kernel().Buffers()
	sum0, zeroed0 := sums(), pool.ZeroedBytes()
	for i := 0; i < ops; i++ {
		oneOp(t)
	}
	n, zeroed := sums()-sum0, pool.ZeroedBytes()-zeroed0
	t.Logf("per committed 4 KiB Mu op: %.3f full-entry checksums, %.0f zero-filled pool bytes",
		float64(n)/ops, float64(zeroed)/ops)
	if limit := uint64(8*ops + 12); n > limit {
		t.Fatalf("%d committed ops computed %d full-entry checksums, want at most %d", ops, n, limit)
	}
	if zeroed != 0 {
		t.Fatalf("%d committed ops zero-filled %d pooled bytes, want 0", ops, zeroed)
	}
}

// TestMuLargeFootprint bounds the host memory a warm five-node 4 KiB Mu
// cluster keeps live, in MB of 2^20 bytes as the benchmark's host_mem_mb
// counts them. Each node's re-replication cache holds at most one 4 MiB
// log ring of encoded bytes: 1 015 entries of 4 129 bytes, each in a
// pooled 4 608-byte buffer, about 22 MB over five nodes beside the five
// rings themselves (20 MB), and the heap reads about 45 MB.
func TestMuLargeFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-op warmup")
	}
	const limit = 50 << 20
	cl, _ := warmSteadySize(t, p4ce.Options{Nodes: 5, Mode: p4ce.ModeMu, Seed: 7}, 4096)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(cl)
	mb := float64(ms.HeapInuse) / (1 << 20)
	t.Logf("warm 5-node 4 KiB Mu cluster: HeapInuse %.1f MB", mb)
	if ms.HeapInuse > limit {
		t.Fatalf("warm 5-node 4 KiB Mu cluster keeps %.1f MB of heap in use, want at most 50 MB", mb)
	}
}

// warmSteady builds a steady-state cluster and returns it with a
// function that proposes one 64-byte operation on its leader and steps
// the kernel until it commits, after 6000 such operations of warmup.
//
// The warmup must fill the re-replication caches so they reach their
// prune-and-recycle steady state on every machine: 4 096 entries at
// 64 bytes, where the count bound binds, and about 1 015 at 4 KiB, where
// one log ring of bytes does. Before that, each append grows a cache
// that has never returned a buffer to the pool.
func warmSteady(t *testing.T, opts p4ce.Options) (*p4ce.Cluster, func(*testing.T)) {
	t.Helper()
	return warmSteadySize(t, opts, 64)
}

// warmSteadySize is warmSteady with operations of size bytes.
func warmSteadySize(t *testing.T, opts p4ce.Options, size int) (*p4ce.Cluster, func(*testing.T)) {
	t.Helper()
	cl, leader, err := Steady(opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	outstanding := 0
	var failed error
	done := func(err error) {
		outstanding--
		if err != nil {
			failed = err
		}
	}
	oneOp := func(t *testing.T) {
		if err := leader.Propose(payload, done); err != nil {
			t.Fatal(err)
		}
		outstanding++
		for outstanding > 0 && failed == nil {
			if !cl.Step() {
				t.Fatal(&stalledError{stage: "steady-state op"})
			}
		}
		if failed != nil {
			t.Fatal(failed)
		}
	}
	for i := 0; i < 6000; i++ {
		oneOp(t)
	}
	return cl, oneOp
}
