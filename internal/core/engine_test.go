package core_test

// The engine's protocol behaviour is exercised end-to-end through the
// public cluster facade (package p4ce imports core, so this external
// test package uses the facade without creating an import cycle).

import (
	"testing"
	"time"

	"p4ce"
	"p4ce/internal/bench"
	"p4ce/internal/mu"
)

func steadyP4CE(t *testing.T, nodes int) (*p4ce.Cluster, *p4ce.Node) {
	t.Helper()
	cl := p4ce.NewCluster(p4ce.Options{Nodes: nodes, Mode: p4ce.ModeP4CE, Seed: 9})
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return cl, leader
}

func TestEngineDialsExactlyOneGroup(t *testing.T) {
	cl, leader := steadyP4CE(t, 3)
	st := leader.EngineStats()
	if st.GroupDials != 1 || st.GroupReady != 1 {
		t.Fatalf("engine stats = %+v, want one dial, one ready", st)
	}
	if len(cl.Groups()) != 1 {
		t.Fatalf("groups = %d", len(cl.Groups()))
	}
}

func TestEngineRequestsPerConsensus(t *testing.T) {
	// The whole point of the engine: one request and one ACK per
	// consensus at the leader's NIC, independent of the replica count.
	// Heartbeats are disabled so monitor reads do not pollute the packet
	// counts.
	for _, nodes := range []int{3, 5} {
		cl, leader, err := bench.Steady(p4ce.Options{
			Nodes: nodes, Mode: p4ce.ModeP4CE, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		tx0 := leader.NICStats().TxPackets
		rx0 := leader.NICStats().RxPackets
		const n = 100
		done := 0
		for i := 0; i < n; i++ {
			if err := leader.Propose([]byte{byte(i)}, func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				done++
			}); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(5 * time.Millisecond)
		if done != n {
			t.Fatalf("nodes=%d: committed %d of %d", nodes, done, n)
		}
		tx := leader.NICStats().TxPackets - tx0
		rx := leader.NICStats().RxPackets - rx0
		// One write out and one ACK in per entry, plus a handful of
		// commit-sync no-ops — never scaling with the replica count.
		if tx > n+10 || rx > n+10 {
			t.Fatalf("nodes=%d: leader tx=%d rx=%d for %d entries, want ≈%d each",
				nodes, tx, rx, n, n)
		}
	}
}

func TestEngineFallbackKeepsCommitting(t *testing.T) {
	cl, leader := steadyP4CE(t, 3)
	// Fence the replica logs against the switch to force NAKs on the
	// accelerated path; the direct path stays authorized.
	for _, n := range cl.Nodes()[1:] {
		n.Protocol().LogMR().RestrictWriter(leader.Protocol().Addr())
	}
	done := 0
	for i := 0; i < 10; i++ {
		if err := leader.Propose([]byte{byte(i)}, func(err error) {
			if err != nil {
				t.Fatalf("proposal after fallback: %v", err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(30 * time.Millisecond)
	if done != 10 {
		t.Fatalf("committed %d of 10 across the fallback", done)
	}
	if leader.EngineStats().Fallbacks == 0 {
		t.Fatal("no fallback recorded")
	}
	if leader.Accelerated() {
		t.Fatal("still accelerated after NAK fallback")
	}
}

func TestEngineReacceleratesAfterProbe(t *testing.T) {
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeP4CE, Seed: 9})
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Break the accelerated path via fencing, commit through fallback...
	for _, n := range cl.Nodes()[1:] {
		n.Protocol().LogMR().RestrictWriter(leader.Protocol().Addr())
	}
	if err := leader.Propose([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(10 * time.Millisecond)
	if leader.Accelerated() {
		t.Fatal("fallback did not happen")
	}
	// ...then repair the fence and wait past the re-acceleration probe.
	for _, n := range cl.Nodes()[1:] {
		n.Protocol().LogMR().AllowAnyWriter()
	}
	cl.Run(250 * time.Millisecond) // probe interval is 100 ms + 40 ms reconfig
	if !leader.Accelerated() {
		t.Fatal("engine never re-accelerated after the probe")
	}
	if leader.EngineStats().Reaccelerated == 0 {
		t.Fatal("re-acceleration not recorded")
	}
}

func TestEngineHoldsProposalsDuringSyncReconfig(t *testing.T) {
	// Synchronous mode: a freshly elected leader buffers proposals until
	// the switch group is ready, then commits them through it.
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeP4CE, Seed: 9})
	var leader *p4ce.Node
	for cl.Step() {
		if l := cl.Leader(); l != nil {
			leader = l
			break
		}
	}
	if leader == nil {
		t.Fatal("no leader")
	}
	committedAt := time.Duration(0)
	if err := leader.Propose([]byte("held"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		committedAt = cl.Shard(0).Now()
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(100 * time.Millisecond)
	if committedAt == 0 {
		t.Fatal("held proposal never committed")
	}
	if committedAt < 40*time.Millisecond {
		t.Fatalf("proposal committed at %v, before the switch reconfigured", committedAt)
	}
	if !leader.Accelerated() {
		t.Fatal("leader not accelerated after hold")
	}
}

func TestEngineMuModeIsInert(t *testing.T) {
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeMu, Seed: 9})
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st := leader.EngineStats(); st.GroupDials != 0 {
		t.Fatalf("Mu-mode engine dialed the switch: %+v", st)
	}
	if err := cl.Node(1).Propose(nil, nil); err != mu.ErrNotLeader {
		t.Fatalf("follower propose = %v, want ErrNotLeader", err)
	}
}
