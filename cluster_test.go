package p4ce

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"p4ce/internal/mu"
)

func TestP4CEClusterElectsAndAccelerates(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if leader.ID() != 0 {
		t.Fatalf("leader = %d, want 0", leader.ID())
	}
	if !leader.Accelerated() {
		t.Fatal("leader not accelerated after group setup")
	}
	groups := cl.Groups()
	if len(groups) != 1 || len(groups[0].Replicas) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestMuClusterNeverTouchesSwitchQPs(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeMu})
	leader, err := cl.RunUntilLeader(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if leader.Accelerated() {
		t.Fatal("Mu mode reported acceleration")
	}
	var done bool
	if err := leader.Propose([]byte("direct"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(5 * time.Millisecond)
	if !done {
		t.Fatal("proposal did not commit in Mu mode")
	}
	if len(cl.Groups()) != 0 {
		t.Fatal("Mu mode installed a switch group")
	}
}

func testCommitN(t *testing.T, mode Mode, nodes, count int) *Cluster {
	t.Helper()
	cl := NewCluster(Options{Nodes: nodes, Mode: mode})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for i := 0; i < count; i++ {
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
	if committed != count {
		t.Fatalf("%v: committed %d of %d", mode, committed, count)
	}
	return cl
}

func TestCommitsBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeP4CE, ModeMu} {
		for _, nodes := range []int{3, 5} {
			t.Run(fmt.Sprintf("%v-%d", mode, nodes), func(t *testing.T) {
				testCommitN(t, mode, nodes, 100)
			})
		}
	}
}

func TestP4CESingleAckPerConsensus(t *testing.T) {
	cl := testCommitN(t, ModeP4CE, 5, 50)
	st := cl.SwitchStats()
	// 50 client entries (+ the view no-op and commit bumps): the leader
	// received exactly one aggregated ACK per scattered write.
	if st.AcksForwarded == 0 || st.AcksForwarded != st.Scattered {
		t.Fatalf("AcksForwarded = %d, Scattered = %d; want equal", st.AcksForwarded, st.Scattered)
	}
	// With 4 replicas, 3 of 4 ACKs per write are absorbed in-network.
	if st.AcksAggregated != 3*st.Scattered {
		t.Fatalf("AcksAggregated = %d, want %d", st.AcksAggregated, 3*st.Scattered)
	}
}

func TestKVReplication(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE})
	stores := make([]*KV, 3)
	for i, n := range cl.Nodes() {
		stores[i] = NewKV()
		n.Bind(stores[i])
	}
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := leader.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Delete("k7", nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(10 * time.Millisecond)
	want := stores[0].Snapshot()
	if len(want) != 19 {
		t.Fatalf("leader store has %d keys, want 19", len(want))
	}
	if _, ok := stores[0].Get("k7"); ok {
		t.Fatal("deleted key still present")
	}
	for i := 1; i < 3; i++ {
		if !reflect.DeepEqual(stores[i].Snapshot(), want) {
			t.Fatalf("replica %d state diverged", i)
		}
	}
}

func TestLeaderCrashFailoverP4CE(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := leader.Set(fmt.Sprintf("k%d", i), "v", nil); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(10 * time.Millisecond)

	leader.Crash()
	cl.Run(100 * time.Millisecond) // detection + takeover + 40 ms reconfig
	next := cl.Leader()
	if next == nil || next.ID() != 1 {
		t.Fatalf("no takeover by node 1: %v", next)
	}
	if !next.Accelerated() {
		t.Fatal("new leader did not regain in-network acceleration")
	}
	var done bool
	if err := next.Set("after", "crash", func(err error) {
		if err != nil {
			t.Fatalf("commit on new leader: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(10 * time.Millisecond)
	if !done {
		t.Fatal("proposal on new leader did not commit")
	}
	// The new leader has its own group installed (the old leader's may
	// linger until garbage collected; its writes fail at the replicas).
	found := false
	for _, g := range cl.Groups() {
		if g.Leader == next.mu.Addr() {
			found = true
		}
	}
	if !found {
		t.Fatal("new leader's group not installed")
	}
}

func TestReplicaCrashP4CE(t *testing.T) {
	cl := NewCluster(Options{Nodes: 5, Mode: ModeP4CE})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cl.Node(4).Crash()
	cl.Run(50 * time.Millisecond) // detection + exclusion + 40 ms switch update
	committed := 0
	for i := 0; i < 20; i++ {
		if err := leader.Propose([]byte{byte(i)}, func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(10 * time.Millisecond)
	if committed != 20 {
		t.Fatalf("committed %d of 20 after replica crash", committed)
	}
	// The switch group no longer multicasts to the dead replica.
	for _, g := range cl.Groups() {
		for _, r := range g.Replicas {
			if r == cl.Node(4).mu.Addr() {
				t.Fatal("dead replica still in the switch group")
			}
		}
	}
}

func TestSwitchCrashFallsBackOverBackupFabric(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, BackupFabric: true})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !leader.Accelerated() {
		t.Fatal("not accelerated before crash")
	}
	cl.CrashSwitch()
	cl.Run(150 * time.Millisecond) // detection + route reconvergence + re-dials

	l := cl.Leader()
	if l == nil {
		t.Fatal("no leader after switch crash")
	}
	if !l.OnBackupRoute() {
		t.Fatal("leader did not fail over to the backup fabric")
	}
	if l.Accelerated() {
		t.Fatal("still accelerated with a dead switch")
	}
	var done bool
	if err := l.Propose([]byte("via backup"), func(err error) {
		if err != nil {
			t.Fatalf("commit over backup: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(20 * time.Millisecond)
	if !done {
		t.Fatal("proposal did not commit over the backup fabric")
	}
}

// TestSwitchRebootKeepsPrimaryRoute: with no spare switch cabled,
// nothing may move a machine onto a spare leg — a power-cycled switch
// comes back and the leader re-accelerates through it.
func TestSwitchRebootKeepsPrimaryRoute(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 1})
	if _, err := cl.RunUntilLeader(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, horizon, err := cl.ApplyChaosScenario("switch-reboot", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(horizon)
	for _, n := range cl.Nodes() {
		if n.OnBackupRoute() {
			t.Fatalf("node %d reports a spare leg on a testbed without one", n.ID())
		}
	}
	if l := cl.Leader(); l == nil || !l.Accelerated() {
		t.Fatalf("leader %v not accelerated after the switch came back", l)
	}
}

func TestNakFallbackAndReacceleration(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Break the accelerated path only: fence replica logs against the
	// switch so the next scattered write draws a NAK.
	for _, n := range cl.Nodes()[1:] {
		n.mu.LogMR().RestrictWriter(leader.mu.Addr())
	}
	var results []error
	for i := 0; i < 5; i++ {
		if err := leader.Propose([]byte{byte(i)}, func(err error) {
			results = append(results, err)
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(50 * time.Millisecond)
	if len(results) != 5 {
		t.Fatalf("only %d of 5 proposals resolved", len(results))
	}
	for i, err := range results {
		if err != nil {
			t.Fatalf("proposal %d failed after fallback: %v", i, err)
		}
	}
	if leader.Accelerated() {
		t.Fatal("still accelerated after NAK")
	}
	if leader.Stats().Fallbacks == 0 {
		t.Fatal("no fallback recorded")
	}
}

func TestAsyncReconfigServesDuringGroupSetup(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, AsyncReconfig: true})
	// Find the leader without requiring acceleration.
	var leader *Node
	for i := 0; i < 50_000_000 && cl.Step(); i++ {
		if l := cl.Leader(); l != nil {
			leader = l
			break
		}
	}
	if leader == nil {
		t.Fatal("no leader")
	}
	// Well before the 40 ms reconfiguration completes, proposals commit
	// through the direct transport.
	var done bool
	if err := leader.Propose([]byte("early"), func(err error) {
		if err != nil {
			t.Fatalf("early commit: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(5 * time.Millisecond)
	if !done {
		t.Fatal("async-reconfig leader did not serve during setup")
	}
	if leader.Accelerated() {
		t.Fatal("accelerated before the switch finished reconfiguring")
	}
	cl.Run(100 * time.Millisecond)
	if !leader.Accelerated() {
		t.Fatal("never accelerated after reconfiguration")
	}
}

func TestProposeOnFollowerRejected(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE})
	if _, err := cl.RunUntilLeader(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	err := cl.Node(2).Propose([]byte("x"), nil)
	if !errors.Is(err, mu.ErrNotLeader) {
		t.Fatalf("Propose on follower = %v, want ErrNotLeader", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, time.Duration) {
		cl := NewCluster(Options{Nodes: 5, Mode: ModeP4CE, Seed: 7})
		leader, err := cl.RunUntilLeader(200 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := leader.Propose([]byte{byte(i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(10 * time.Millisecond)
		return leader.CommitIndex(), cl.Now()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", c1, t1, c2, t2)
	}
}

func TestZombieLeaderCannotCommitViaSwitch(t *testing.T) {
	// The deposed leader's switch group must be fenced: its writes land
	// on destroyed queue pairs and never produce acknowledgments.
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	applied := make([]*KV, 3)
	for i, n := range cl.Nodes() {
		applied[i] = NewKV()
		n.Bind(applied[i])
	}
	leader.Pause() // alive NIC, dead protocol: a zombie
	cl.Run(120 * time.Millisecond)
	next := cl.Leader()
	if next == nil || next.ID() != 1 {
		t.Fatal("no takeover from the zombie")
	}
	// The zombie fires a write straight into its old switch group.
	var zombieErr error
	gotResult := false
	err = leader.mu.Propose([]byte("zombie"), func(err error) {
		zombieErr = err
		gotResult = true
	})
	if err == nil {
		cl.Run(50 * time.Millisecond)
		if gotResult && zombieErr == nil {
			t.Fatal("zombie leader's proposal was acknowledged")
		}
	}
	for i, kv := range applied {
		if _, ok := kv.Get("zombie"); ok {
			t.Fatalf("node %d applied the zombie's write", i)
		}
	}
}

func TestChaosPacketLoss(t *testing.T) {
	// 0.5% packet loss on every host link: retransmission keeps the
	// cluster correct and live (the paper's correctness argument, §III-A,
	// leans entirely on the transport recovering from drops).
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 1234})
	for _, n := range cl.Nodes() {
		n.port.SetLoss(0.005)
	}
	stores := make([]*KV, 3)
	for i, n := range cl.Nodes() {
		stores[i] = NewKV()
		n.Bind(stores[i])
	}
	leader, err := cl.RunUntilLeader(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 150
	acked := 0
	sh := cl.Shard(0)
	var put func(i int)
	put = func(i int) {
		l := cl.Leader()
		if l == nil {
			sh.After(time.Millisecond, func() { put(i) })
			return
		}
		if err := l.Set(fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i), func(err error) {
			if err != nil {
				sh.After(time.Millisecond, func() { put(i) })
				return
			}
			acked++
		}); err != nil {
			sh.After(time.Millisecond, func() { put(i) })
		}
	}
	for i := 0; i < writes; i++ {
		i := i
		sh.After(time.Duration(i)*30*time.Microsecond, func() { put(i) })
	}
	cl.Run(400 * time.Millisecond)
	if acked != writes {
		t.Fatalf("acked %d of %d under packet loss", acked, writes)
	}
	if leader.NICStats().Retransmits == 0 {
		t.Fatal("suspicious: no retransmissions under 0.5%% loss")
	}
	// All replicas converge to identical state.
	want := stores[0].Snapshot()
	if len(want) != writes {
		t.Fatalf("leader applied %d keys, want %d", len(want), writes)
	}
	cl.Run(50 * time.Millisecond) // let commit bumps propagate
	for i := 1; i < 3; i++ {
		if !reflect.DeepEqual(stores[i].Snapshot(), want) {
			t.Fatalf("replica %d diverged under packet loss", i)
		}
	}
}

func TestSevenNodeCluster(t *testing.T) {
	cl := NewCluster(Options{Nodes: 7, Mode: ModeP4CE, Seed: 5})
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 50; i++ {
		if err := leader.Propose([]byte{byte(i)}, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(10 * time.Millisecond)
	if done != 50 {
		t.Fatalf("committed %d of 50 on 7 nodes", done)
	}
	// f = 3: per write, one ACK forwarded and five absorbed.
	st := cl.SwitchStats()
	if st.AcksForwarded == 0 || st.AcksAggregated != 5*st.AcksForwarded {
		t.Fatalf("aggregation stats off for 7 nodes: %+v", st)
	}
}

func TestDoubleFailure(t *testing.T) {
	// Five machines tolerate two crashes (leader and a replica, in
	// sequence) and still serve.
	cl := NewCluster(Options{Nodes: 5, Mode: ModeP4CE, Seed: 6, AsyncReconfig: true})
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	leader.Crash()
	cl.Run(30 * time.Millisecond)
	cl.Node(4).Crash()
	cl.Run(30 * time.Millisecond)
	next := cl.Leader()
	if next == nil {
		t.Fatal("no leader after double failure")
	}
	done := false
	if err := next.Propose([]byte("still alive"), func(err error) {
		if err != nil {
			t.Fatalf("commit after double failure: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(20 * time.Millisecond)
	if !done {
		t.Fatal("no commit after double failure")
	}
}
