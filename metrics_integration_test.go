package p4ce

// Integration coverage for the sim-wide metrics layer: a cluster built
// with EnableMetrics must light up the expected instruments in every
// layer (fabric, NIC, switch program, consensus) after a short
// workload, and one built without must pay nothing — a nil registry,
// nil handles and no-op observations.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// runMeteredWorkload commits a burst of writes on a 4-node P4CE cluster
// and returns it.
func runMeteredWorkload(t *testing.T, enable bool) *Cluster {
	t.Helper()
	cl := NewCluster(Options{Nodes: 4, Mode: ModeP4CE, Seed: 11, EnableMetrics: enable})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	payload := make([]byte, 128)
	for i := 0; i < 64; i++ {
		if err := leader.Propose(payload, func(err error) {
			if err == nil {
				committed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(5 * time.Millisecond)
	if committed == 0 {
		t.Fatal("workload committed nothing")
	}
	return cl
}

func TestClusterMetricsCoverEveryLayer(t *testing.T) {
	cl := runMeteredWorkload(t, true)
	reg := cl.Metrics()
	if !reg.Enabled() {
		t.Fatal("EnableMetrics did not attach a registry")
	}
	snap := reg.Snapshot()

	// One instrument per layer proves the layer is wired; the layer's
	// own unit tests cover the rest of its counters.
	for _, name := range []string{
		"simnet.tx_frames",       // fabric
		"rnic.tx_packets",        // NIC
		"tofino.ingress_packets", // switch
		"p4ce.acks_forwarded",    // switch program (gather pipeline)
		"mu.committed",           // consensus
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero after a committed workload (layer not instrumented?)", name)
		}
	}
	for _, name := range []string{
		"p4ce.gather_forward_latency_ns",
		"mu.commit_latency_ns",
		"tofino.multicast_fanout",
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %q empty after a committed workload", name)
			continue
		}
		if !(h.P50Ns <= h.P99Ns && h.P99Ns <= h.P999Ns && h.P999Ns <= h.MaxNs) {
			t.Errorf("histogram %q percentiles not ordered: %+v", name, h)
		}
	}
	// Commit latency must be positive sim time: proposals cannot commit
	// on the tick they were proposed (the fabric has real delays).
	if lat := snap.Histograms["mu.commit_latency_ns"]; lat.MeanNs <= 0 {
		t.Errorf("mu.commit_latency_ns mean = %d, want > 0", lat.MeanNs)
	}
}

func TestClusterMetricsDisabledByDefault(t *testing.T) {
	cl := runMeteredWorkload(t, false)
	reg := cl.Metrics()
	if reg.Enabled() {
		t.Fatal("metrics registry attached without EnableMetrics")
	}
	// Nil-registry accessors and snapshots are usable no-ops.
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("nil registry has names: %v", names)
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestShardMetricsScopedByNICAddress pins where a machine's per-shard
// series come from: each mu node and NIC takes its shard from the third
// octet of its address (10.0.<s>.x), so load on shard 0 moves only
// shard 0's series.
func TestShardMetricsScopedByNICAddress(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Shards: 2, Mode: ModeP4CE, Seed: 7, EnableMetrics: true})
	leaders := shardedReady(t, cl)
	// shard1 reads every mu.shard1.* and rnic.shard1.* counter.
	shard1 := func() map[string]uint64 {
		out := make(map[string]uint64)
		for name, v := range cl.Metrics().Snapshot().Counters {
			if strings.HasPrefix(name, "mu.shard1.") || strings.HasPrefix(name, "rnic.shard1.") {
				out[name] = v
			}
		}
		return out
	}
	idle := shard1()
	for _, name := range []string{"mu.shard1.proposed", "rnic.shard1.retransmits"} {
		if _, ok := idle[name]; !ok {
			t.Fatalf("%s not bound", name)
		}
	}

	committed := 0
	cl.Shard(0).After(0, func() {
		for i := 0; i < 32; i++ {
			if err := leaders[0].Propose([]byte{byte(i)}, func(err error) {
				if err == nil {
					committed++
				}
			}); err != nil {
				t.Error(err)
			}
		}
	})
	cl.Run(5 * time.Millisecond)
	if committed != 32 {
		t.Fatalf("shard 0 committed %d of 32", committed)
	}

	snap := cl.Metrics().Snapshot()
	for s, l := range leaders {
		st := l.Stats()
		if got := snap.Counters[fmt.Sprintf("mu.shard%d.proposed", s)]; got != st.Proposed {
			t.Errorf("mu.shard%d.proposed = %d, want shard %d leader's %d", s, got, s, st.Proposed)
		}
		if got := snap.Counters[fmt.Sprintf("mu.shard%d.committed", s)]; got != st.Committed {
			t.Errorf("mu.shard%d.committed = %d, want shard %d leader's %d", s, got, s, st.Committed)
		}
	}
	// Shard 1's leader committed only its takeover no-op; its NICs never
	// retransmitted.
	for name, v := range shard1() {
		if v != idle[name] {
			t.Errorf("%s moved %d -> %d under shard 0's load", name, idle[name], v)
		}
		if strings.HasPrefix(name, "rnic.") && v != 0 {
			t.Errorf("%s = %d with no fault on shard 1", name, v)
		}
	}
}
