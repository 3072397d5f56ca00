package p4ce

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"
	"time"
)

// fabricOptions is the canonical small fabric testbed: five machines
// dealt onto two racks (0,2,4 behind ToR 0; 1,3 behind ToR 1), two
// spines, one standby. Rack 0 holds a majority, so the cluster
// survives losing rack 1 outright.
func fabricOptions(seed int64) Options {
	return Options{
		Nodes: 5,
		Mode:  ModeP4CE,
		Seed:  seed,
		Topology: &Topology{
			Racks:   2,
			Spines:  2,
			Standby: true,
		},
	}
}

func TestFabricClusterElectsAndCommits(t *testing.T) {
	cl := NewCluster(fabricOptions(0))
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if leader.ID() != 0 {
		t.Fatalf("leader = %d, want 0", leader.ID())
	}
	if !leader.Accelerated() {
		t.Fatal("leader not accelerated on the fabric")
	}
	committed := 0
	for i := 0; i < 50; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("cmd-%d", i)), func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(50 * time.Millisecond)
	if committed != 50 {
		t.Fatalf("committed %d of 50 over the fabric", committed)
	}

	// The group spans racks: the root lists rack 1's leaf alongside the
	// leader ToR's local replicas.
	groups := cl.Groups()
	if len(groups) != 1 {
		t.Fatalf("groups = %+v", groups)
	}
	if len(groups[0].Replicas) != 4 {
		t.Fatalf("group replicas = %v, want all 4", groups[0].Replicas)
	}
	if len(groups[0].Racks) == 0 {
		t.Fatalf("root group lists no remote racks: %+v", groups[0])
	}

	// Hierarchical aggregation really happened: partial counts crossed
	// the spine and were merged at the leader's ToR — far fewer
	// crossings than the raw per-replica ACK count.
	st := cl.SwitchStats()
	if st.AcksUpForwarded == 0 || st.PartialsAggregated == 0 {
		t.Fatalf("no hierarchical aggregation observed: %+v", st)
	}
	if st.AcksForwarded == 0 {
		t.Fatalf("leader never got an aggregated ACK: %+v", st)
	}
}

// runFabricPartitioned drives a fixed two-shard workload over the
// leaf-spine fabric at the given partition count and fingerprints
// every observable: event totals, acked writes, per-node applied
// histories. The hierarchical gather — leaf bitmaps, partial-count
// ACKs, root merges — must replay bit-identically at any count.
func runFabricPartitioned(t *testing.T, partitions int) (uint64, uint64, int) {
	t.Helper()
	const shards = 2
	cl := NewCluster(Options{
		Nodes: 5, Shards: shards, Mode: ModeP4CE, Seed: 777,
		Partitions: partitions,
		Topology:   &Topology{Racks: 2, Spines: 2, Standby: true},
	})
	type rec struct {
		idx  uint64
		data string
	}
	applied := make([][]rec, len(cl.Nodes()))
	for gi, n := range cl.Nodes() {
		gi := gi
		n.OnApply(func(index uint64, data []byte) {
			applied[gi] = append(applied[gi], rec{index, string(data)})
		})
	}
	if _, err := cl.RunUntilAllLeaders(500 * time.Millisecond); err != nil {
		t.Fatalf("partitions=%d: %v", partitions, err)
	}
	acked := make([]int, shards)
	for s := 0; s < shards; s++ {
		s := s
		sh := cl.Shard(s)
		c := cl.NewClientForShard(s)
		c.RetryDelay = 500 * time.Microsecond
		seq := 0
		var tick func()
		tick = func() {
			seq++
			c.SubmitKV(fmt.Sprintf("s%d:k%03d", s, seq), "v", func(err error) {
				if err == nil {
					acked[s]++
				}
			})
			if seq < 60 {
				sh.After(60*time.Microsecond, tick)
			}
		}
		sh.After(time.Duration(s+1)*25*time.Microsecond, tick)
	}
	cl.Run(25 * time.Millisecond)

	h := fnv.New64a()
	total := 0
	for _, a := range acked {
		total += a
	}
	fmt.Fprintf(h, "events=%d acked=%v stats=%+v", cl.EventsProcessed(), acked, cl.SwitchStats())
	for gi, n := range cl.Nodes() {
		recs := applied[gi]
		sort.Slice(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
		fmt.Fprintf(h, "|node%d commit=%d term=%d", gi, n.CommitIndex(), n.Term())
		for _, r := range recs {
			fmt.Fprintf(h, ";%d=%s", r.idx, r.data)
		}
	}
	return cl.EventsProcessed(), h.Sum64(), total
}

// TestFabricGatherDeterminism is the fabric's partitioned-kernel gate:
// identical options and seed replay bit-identically at partition
// counts 1, 2 and 4, hierarchical aggregation included.
func TestFabricGatherDeterminism(t *testing.T) {
	ev1, fp1, acked := runFabricPartitioned(t, 1)
	if acked == 0 {
		t.Fatal("no write was ever acknowledged over the fabric")
	}
	for _, p := range []int{2, 4} {
		ev, fp, a := runFabricPartitioned(t, p)
		if ev != ev1 || fp != fp1 || a != acked {
			t.Fatalf("partitions=%d diverged from partitions=1: events %d vs %d, acked %d vs %d, fp %x vs %x",
				p, ev, ev1, a, acked, fp, fp1)
		}
	}
}

// TestFabricToRFailoverNoLostCommits drives a continuous workload
// through a ToR crash and standby adoption, and asserts the strongest
// client-visible contract: every acknowledged operation survives,
// exactly once, in submit order, on every machine that applied it —
// nothing committed is lost or reordered across the 40 ms
// reconfiguration window. Rack 1's ToR is a remote rack's; rack 0's
// serves the leader, which loses every peer until the standby adopts
// its rack.
func TestFabricToRFailoverNoLostCommits(t *testing.T) {
	for _, rack := range []int{1, 0} {
		t.Run(fmt.Sprintf("rack%d", rack), func(t *testing.T) { torFailoverNoLostCommits(t, rack) })
	}
}

func torFailoverNoLostCommits(t *testing.T, rack int) {
	cl := NewCluster(fabricOptions(11))
	type rec struct {
		idx  uint64
		data string
	}
	applied := make([][]rec, 5)
	for gi, n := range cl.Nodes() {
		gi := gi
		n.OnApply(func(index uint64, data []byte) {
			applied[gi] = append(applied[gi], rec{index, string(data)})
		})
	}
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	const crashAfter = 10 * time.Millisecond
	crashAt := cl.Now() + crashAfter
	var ackedOps []string
	ackedLate := 0 // acknowledged once the standby has taken over
	seq := 0
	sh := cl.Shard(0)
	var tick func()
	tick = func() {
		if l := cl.Leader(); l != nil {
			seq++
			payload := fmt.Sprintf("op-%04d", seq)
			_ = l.Propose([]byte(payload), func(err error) {
				if err == nil {
					ackedOps = append(ackedOps, payload)
					if sh.Now() > crashAt+100*time.Millisecond {
						ackedLate++
					}
				}
			})
		}
		sh.After(100*time.Microsecond, tick)
	}
	sh.After(100*time.Microsecond, tick)

	// The ToR dies mid-stream; the supervisor's 40 ms failover follows.
	cl.After(crashAfter, func() { cl.CrashToR(rack) })
	cl.Run(300 * time.Millisecond)

	if cl.Fabric().AdoptedRack() != rack {
		t.Fatalf("standby never adopted rack %d (adopted=%d)", rack, cl.Fabric().AdoptedRack())
	}
	final := cl.Leader()
	if final == nil {
		t.Fatal("no leader after the failover")
	}
	if rack != leader.Rack() && final != leader {
		t.Fatalf("leadership moved during a remote-rack failover: %v", final)
	}
	if len(ackedOps) == 0 || ackedLate == 0 {
		t.Fatalf("acknowledged %d ops, %d of them after the failover: commits did not resume",
			len(ackedOps), ackedLate)
	}

	// Build the final leader's committed history in log order. A batch
	// entry applies its operations in order under one index, so the
	// sort must keep apply order among equal indexes.
	recs := applied[final.ID()]
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
	pos := make(map[string]int)
	for i, r := range recs {
		if _, dup := pos[r.data]; dup && r.data != "" {
			t.Fatalf("entry %q applied at two log indexes", r.data)
		}
		pos[r.data] = i
	}
	// Every acked op is present, and their log order equals submit order.
	last := -1
	for _, op := range ackedOps {
		p, ok := pos[op]
		if !ok {
			t.Fatalf("acknowledged op %q missing from the leader's applied history", op)
		}
		if p <= last {
			t.Fatalf("acknowledged op %q applied out of submit order", op)
		}
		last = p
	}
	// And every machine that applied an index agrees on its contents.
	byIndex := func(recs []rec) map[uint64]string {
		m := make(map[uint64]string, len(recs))
		for _, r := range recs {
			m[r.idx] += r.data + ";"
		}
		return m
	}
	want := byIndex(recs)
	for i := range applied {
		for idx, data := range byIndex(applied[i]) {
			if w, ok := want[idx]; ok && data != w {
				t.Fatalf("node %d diverged at index %d: %q vs %q", i, idx, data, w)
			}
		}
	}
}

// failRack1 builds the canonical fabric testbed, elects node 0 (rack
// 0), crashes rack 1's ToR and runs until the supervisor has moved the
// rack's machines onto their standby legs.
func failRack1(t *testing.T) *Cluster {
	t.Helper()
	cl := NewCluster(fabricOptions(11))
	if _, err := cl.RunUntilLeader(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cl.CrashToR(1)
	cl.Run(60 * time.Millisecond) // a 5 ms poll, the 40 ms reconfiguration, slack
	if cl.Fabric().AdoptedRack() != 1 {
		t.Fatalf("standby never adopted rack 1 (adopted=%d)", cl.Fabric().AdoptedRack())
	}
	for _, n := range cl.Nodes() {
		if n.OnBackupRoute() != (n.Rack() == 1) {
			t.Fatalf("node %d (rack %d) on its spare leg: %v", n.ID(), n.Rack(), n.OnBackupRoute())
		}
	}
	return cl
}

// TestFabricCrashAfterToRFailoverDarkensSpareLeg: a machine crashed
// after its rack moved onto the standby goes dark on the leg it is on,
// so it neither receives nor transmits any more.
func TestFabricCrashAfterToRFailoverDarkensSpareLeg(t *testing.T) {
	cl := failRack1(t)
	victim := cl.Node(1)
	cl.Shard(0).After(0, victim.Crash)
	cl.Run(5 * time.Millisecond) // let the crash land
	before := victim.NICStats()
	cl.Run(50 * time.Millisecond)
	if after := victim.NICStats(); after.RxPackets != before.RxPackets || after.TxPackets != before.TxPackets {
		t.Fatalf("crashed machine kept its NIC busy: rx %d → %d, tx %d → %d",
			before.RxPackets, after.RxPackets, before.TxPackets, after.TxPackets)
	}
}

// TestFabricLeaderCrashAfterToRFailoverReaccelerates: a machine on its
// standby leg still dials its rack's ToR identity — now the standby's —
// so when it becomes leader it is accelerated like any other.
func TestFabricLeaderCrashAfterToRFailoverReaccelerates(t *testing.T) {
	cl := failRack1(t)
	old := cl.Leader()
	if old == nil || old.Rack() != 0 {
		t.Fatalf("leader %v, want a rack-0 machine", old)
	}
	sh := cl.Shard(0)
	sh.After(0, old.Crash)
	cl.Run(time.Microsecond)
	crashAt := sh.Now()
	for sh.Now()-crashAt < 200*time.Millisecond {
		if !cl.Step() {
			break
		}
		if l := cl.Leader(); l != nil && l != old && l.Accelerated() {
			if l.Rack() != 1 {
				t.Fatalf("new leader node %d is in rack %d, want rack 1", l.ID(), l.Rack())
			}
			t.Logf("node %d accelerated %v after the crash", l.ID(), sh.Now()-crashAt)
			return
		}
	}
	l := cl.Leader()
	if l == nil {
		t.Fatal("no leader within 200 ms of the crash")
	}
	t.Fatalf("new leader node %d (rack %d) not accelerated within 200 ms of the crash",
		l.ID(), l.Rack())
}

// TestFabricFlatGatherAblation measures the fan-in saving of
// hierarchical aggregation on one run. Rack 1's leaf ToR receives every
// ACK of its rack's replicas — exactly what a per-ACK relay would carry
// across the spine — and sends one partial-count ACK up per round, so
// the saving is the rack's replica count.
func TestFabricFlatGatherAblation(t *testing.T) {
	cl := NewCluster(fabricOptions(21))
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if leader.Rack() != 0 {
		t.Fatalf("leader in rack %d, want rack 0", leader.Rack())
	}
	committed := 0
	for i := 0; i < 40; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("cmd-%d", i)), func(err error) {
			if err == nil {
				committed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(50 * time.Millisecond)
	if committed != 40 {
		t.Fatalf("committed %d, want 40", committed)
	}
	root := cl.dps[cl.fabric.ToR(0)].Stats
	leaf := cl.dps[cl.fabric.ToR(1)].Stats
	received := leaf.AcksAggregated + leaf.AcksUpForwarded
	t.Logf("leaf: %d ACKs absorbed + %d partials sent up = %d received; root merged %d partials",
		leaf.AcksAggregated, leaf.AcksUpForwarded, received, root.PartialsAggregated)
	if leaf.AcksUpForwarded == 0 {
		t.Fatalf("leaf never sent a partial up: %+v", leaf)
	}
	// Rack 1 holds two replicas (machines 1 and 3): each partial stands
	// for both of their ACKs.
	if received != 2*leaf.AcksUpForwarded {
		t.Fatalf("leaf received %d replica ACKs for %d partials, want 2 per partial",
			received, leaf.AcksUpForwarded)
	}
	if root.PartialsAggregated != leaf.AcksUpForwarded {
		t.Fatalf("root merged %d partials, leaf sent %d",
			root.PartialsAggregated, leaf.AcksUpForwarded)
	}
	// Each partial carries the rack-complete count: the root's per-slot
	// rack counts (the run's one group is g1) read 2 in exactly one slot
	// per partial, never a count of 1 sent before the rack finished.
	rackCnt, ok := cl.fabric.ToR(0).Register("p4ce/g1/rackCnt")
	if !ok {
		t.Fatal("root holds no rack-count register")
	}
	full := uint64(0)
	for i := 0; i < rackCnt.Size(); i++ {
		switch rackCnt.Read(i) {
		case 0:
		case 2:
			full++
		default:
			t.Fatalf("slot %d merged a rack count of %d, want 2", i, rackCnt.Read(i))
		}
	}
	if full != leaf.AcksUpForwarded {
		t.Fatalf("%d slots hold the full rack count, leaf sent %d partials", full, leaf.AcksUpForwarded)
	}
}

// TestFabricSingleRackDegenerate: one rack, one spine, no standby is
// the single-switch case routed through a (trivial) fabric — every
// replica is ToR-local, so no partial-count machinery engages.
func TestFabricSingleRackDegenerate(t *testing.T) {
	cl := NewCluster(Options{
		Nodes: 3, Mode: ModeP4CE, Seed: 5,
		Topology: &Topology{Racks: 1, Spines: 1},
	})
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for i := 0; i < 20; i++ {
		if err := leader.Propose([]byte{byte(i)}, func(err error) {
			if err == nil {
				committed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(50 * time.Millisecond)
	if committed != 20 {
		t.Fatalf("committed %d of 20 on a single-rack fabric", committed)
	}
	st := cl.SwitchStats()
	if st.AcksUpForwarded != 0 || st.PartialsAggregated != 0 {
		t.Fatalf("single-rack fabric crossed a spine: %+v", st)
	}
	if st.AcksForwarded == 0 {
		t.Fatalf("no aggregated ACKs on a single-rack fabric: %+v", st)
	}
}

// TestSingleSwitchIsOneRackFabric: without a Topology the cluster is
// the one-rack, spine-less fabric — one ToR, every machine in rack 0 —
// and its group has no remote rack to aggregate.
func TestSingleSwitchIsOneRackFabric(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3})
	f := cl.Fabric()
	if f.Racks() != 1 || f.SpineCount() != 0 || f.Standby() != nil {
		t.Fatalf("fabric has %d racks, %d spines, standby %v; want 1, 0, none",
			f.Racks(), f.SpineCount(), f.Standby())
	}
	for _, n := range cl.Nodes() {
		if n.Rack() != 0 {
			t.Fatalf("node %d in rack %d, want 0", n.ID(), n.Rack())
		}
	}
	if _, err := cl.RunUntilLeader(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	gs := cl.Groups()
	if len(gs) != 1 || len(gs[0].Replicas) != 2 || len(gs[0].Racks) != 0 {
		t.Fatalf("groups %+v; want one group of 2 replicas and no racks", gs)
	}
}

func TestFabricReplicasConverge(t *testing.T) {
	cl := NewCluster(fabricOptions(3))
	stores := make([]*KV, 5)
	for i, n := range cl.Nodes() {
		stores[i] = NewKV()
		n.Bind(stores[i])
	}
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := leader.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(50 * time.Millisecond)
	want := stores[0].Snapshot()
	if len(want) != 30 {
		t.Fatalf("leader applied %d keys, want 30", len(want))
	}
	for i := 1; i < 5; i++ {
		if !reflect.DeepEqual(stores[i].Snapshot(), want) {
			t.Fatalf("replica %d (rack %d) diverged", i, cl.Node(i).Rack())
		}
	}
}
