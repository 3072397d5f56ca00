package mu_test

import (
	"errors"
	"fmt"
	"testing"

	"p4ce/internal/mu"
	"p4ce/internal/rnic"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/tofino"
)

// cluster is n machines on a plain L3 switch running Mu.
type cluster struct {
	k       *sim.Kernel
	sw      *tofino.Switch
	nodes   []*mu.Node
	ports   []*simnet.Port // host-side port per node (fault injection)
	applied [][]string     // per node, applied entry payloads
}

func newCluster(t *testing.T, n int, mutate func(*mu.Config)) *cluster {
	t.Helper()
	k := sim.NewKernel(21)
	c := &cluster{k: k}
	c.sw = tofino.New(k, "fabric", simnet.AddrFrom(10, 0, 0, 254), tofino.DefaultConfig())
	c.sw.SetProgram(&tofino.L3Program{})
	c.applied = make([][]string, n)

	var peers []mu.Peer
	for i := 0; i < n; i++ {
		peers = append(peers, mu.Peer{ID: i, Addr: simnet.AddrFrom(10, 0, 0, byte(i+1))})
	}
	for i := 0; i < n; i++ {
		cfg := mu.DefaultConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		nic := rnic.New(k, rnic.DefaultConfig(), peers[i].Addr)
		hostPort := simnet.NewPort(k, peers[i].Addr.String(), nil)
		pid, swPort := c.sw.AddPort(peers[i].Addr.String())
		simnet.Connect(hostPort, swPort, simnet.DefaultLinkConfig())
		c.sw.BindAddr(peers[i].Addr, pid)
		nic.AttachPort(hostPort)

		others := make([]mu.Peer, 0, n-1)
		for j, p := range peers {
			if j != i {
				others = append(others, p)
			}
		}
		node := mu.NewNode(cfg, peers[i], others, nic)
		c.ports = append(c.ports, hostPort)
		idx := i
		node.OnApply = func(e mu.Entry) {
			c.applied[idx] = append(c.applied[idx], string(e.Data))
		}
		c.nodes = append(c.nodes, node)
	}
	for _, node := range c.nodes {
		node.Start()
	}
	return c
}

// settle runs until a leader is stable.
func (c *cluster) settle(t *testing.T, horizon sim.Time) *mu.Node {
	t.Helper()
	c.k.RunUntil(c.k.Now() + horizon)
	for _, n := range c.nodes {
		if n.IsLeader() {
			return n
		}
	}
	t.Fatal("no leader elected")
	return nil
}

func TestElectionPicksLowestID(t *testing.T) {
	c := newCluster(t, 3, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	if leader.ID() != 0 {
		t.Fatalf("leader = %d, want 0 (lowest id)", leader.ID())
	}
	for _, n := range c.nodes {
		if n.LeaderID() != 0 {
			t.Fatalf("node %d believes leader is %d", n.ID(), n.LeaderID())
		}
		if n.ID() != 0 && n.IsLeader() {
			t.Fatalf("node %d also thinks it leads", n.ID())
		}
	}
}

func TestProposeCommitsAndApplies(t *testing.T) {
	c := newCluster(t, 3, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	var committed int
	for i := 0; i < 10; i++ {
		payload := fmt.Sprintf("value-%d", i)
		if err := leader.Propose([]byte(payload), func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(5 * sim.Millisecond)
	if committed != 10 {
		t.Fatalf("committed %d of 10", committed)
	}
	// All replicas applied all entries in order (commit-sync no-ops
	// propagate the final commit index).
	for i, log := range c.applied {
		if len(log) != 10 {
			t.Fatalf("node %d applied %d entries, want 10: %v", i, len(log), log)
		}
		for j, v := range log {
			if v != fmt.Sprintf("value-%d", j) {
				t.Fatalf("node %d applied %q at %d", i, v, j)
			}
		}
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.settle(t, 10*sim.Millisecond)
	err := c.nodes[1].Propose([]byte("nope"), nil)
	if !errors.Is(err, mu.ErrNotLeader) {
		t.Fatalf("Propose on follower = %v, want ErrNotLeader", err)
	}
}

func TestPipelinedProposals(t *testing.T) {
	c := newCluster(t, 5, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	const total = 500
	committed := 0
	for i := 0; i < total; i++ {
		if err := leader.Propose([]byte{byte(i)}, func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(20 * sim.Millisecond)
	if committed != total {
		t.Fatalf("committed %d of %d", committed, total)
	}
	if leader.CommitIndex() < total {
		t.Fatalf("CommitIndex = %d, want ≥ %d", leader.CommitIndex(), total)
	}
}

func TestReplicaCrashDoesNotStall(t *testing.T) {
	c := newCluster(t, 5, nil) // f = 2
	leader := c.settle(t, 10*sim.Millisecond)
	c.nodes[4].Crash()
	c.k.RunFor(2 * sim.Millisecond) // let detection settle
	committed := 0
	for i := 0; i < 20; i++ {
		if err := leader.Propose([]byte{byte(i)}, func(err error) {
			if err != nil {
				t.Fatalf("commit after replica crash: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(5 * sim.Millisecond)
	if committed != 20 {
		t.Fatalf("committed %d of 20 after replica crash", committed)
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	c := newCluster(t, 3, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	if leader.ID() != 0 {
		t.Fatalf("unexpected initial leader %d", leader.ID())
	}
	// Commit some entries first.
	for i := 0; i < 5; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("pre-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(5 * sim.Millisecond)

	crashAt := c.k.Now()
	leader.Crash()
	c.k.RunFor(20 * sim.Millisecond)
	next := c.nodes[1]
	if !next.IsLeader() {
		t.Fatalf("node 1 did not take over (role %v, leaderID %d)", next.Role(), next.LeaderID())
	}
	if next.Term() <= 1 {
		t.Fatalf("term did not advance: %d", next.Term())
	}
	_ = crashAt

	// The new leader serves proposals and node 2 applies everything.
	committed := 0
	for i := 0; i < 5; i++ {
		if err := next.Propose([]byte(fmt.Sprintf("post-%d", i)), func(err error) {
			if err != nil {
				t.Fatalf("commit on new leader: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(10 * sim.Millisecond)
	if committed != 5 {
		t.Fatalf("committed %d of 5 on the new leader", committed)
	}
	want := []string{"pre-0", "pre-1", "pre-2", "pre-3", "pre-4", "post-0", "post-1", "post-2", "post-3", "post-4"}
	got := c.applied[2]
	if len(got) != len(want) {
		t.Fatalf("node 2 applied %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node 2 applied %q at %d, want %q", got[i], i, want[i])
		}
	}
}

func TestFailoverTime(t *testing.T) {
	// Table IV: Mu's leader fail-over ≈ 0.9 ms (detection + permission
	// switching + catch-up).
	c := newCluster(t, 3, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	c.k.RunFor(sim.Millisecond)
	crashAt := c.k.Now()
	leader.Crash()
	var tookOver sim.Time
	for i := 0; i < 5_000_000 && c.k.Step(); i++ {
		if c.nodes[1].IsLeader() {
			tookOver = c.k.Now()
			break
		}
	}
	if tookOver == 0 {
		t.Fatal("no takeover")
	}
	d := tookOver - crashAt
	if d < 500*sim.Microsecond || d > 2*sim.Millisecond {
		t.Fatalf("fail-over took %v, want ≈0.9ms", d)
	}
}

func TestOldLeaderIsFenced(t *testing.T) {
	// After a view change, writes from the deposed leader's replication
	// QPs must be refused by the replicas' NICs.
	c := newCluster(t, 3, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	// Stop the leader's protocol activity without killing its NIC: the
	// machine is alive but stops heartbeating (e.g. long GC pause).
	leader.Stop()
	c.k.RunFor(20 * sim.Millisecond)
	if !c.nodes[1].IsLeader() {
		t.Fatal("node 1 did not take over from the paused leader")
	}
	// The paused machine tries to replicate: its proposals must fail.
	var gotErr error
	err := leader.Propose([]byte("zombie write"), func(err error) { gotErr = err })
	if err == nil {
		c.k.RunFor(10 * sim.Millisecond)
		if gotErr == nil {
			t.Fatal("deposed leader's write was acknowledged — fencing is broken")
		}
	}
	// Whichever path rejected it, no replica may have applied it.
	for i, log := range c.applied {
		for _, v := range log {
			if v == "zombie write" {
				t.Fatalf("node %d applied the deposed leader's write", i)
			}
		}
	}
}

func TestViewChangeAdoptsLongestLog(t *testing.T) {
	// Entries committed before the crash must survive the view change
	// even when the next leader lagged.
	c := newCluster(t, 5, nil)
	leader := c.settle(t, 10*sim.Millisecond)
	committed := 0
	for i := 0; i < 50; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("e%d", i)), func(err error) {
			if err == nil {
				committed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(5 * sim.Millisecond)
	if committed != 50 {
		t.Fatalf("committed %d of 50 before crash", committed)
	}
	leader.Crash()
	c.k.RunFor(30 * sim.Millisecond)
	next := c.nodes[1]
	if !next.IsLeader() {
		t.Fatal("no takeover")
	}
	if next.LastIndex() < 50 {
		t.Fatalf("new leader's log ends at %d, lost committed entries", next.LastIndex())
	}
	// Every live replica ends up with the same applied prefix.
	c.k.RunFor(10 * sim.Millisecond)
	for i := 1; i < 5; i++ {
		if len(c.applied[i]) < 50 {
			t.Fatalf("node %d applied only %d entries", i, len(c.applied[i]))
		}
		for j := 0; j < 50; j++ {
			if c.applied[i][j] != fmt.Sprintf("e%d", j) {
				t.Fatalf("node %d entry %d = %q", i, j, c.applied[i][j])
			}
		}
	}
}

func TestLogWrapAround(t *testing.T) {
	c := newCluster(t, 3, func(cfg *mu.Config) {
		cfg.LogSize = 8 << 10 // force many wraps
	})
	leader := c.settle(t, 10*sim.Millisecond)
	const total = 400 // ≈ 100 B/entry → ~5 laps around an 8 KiB ring
	committed := 0
	var post func(i int)
	post = func(i int) {
		if i == total {
			return
		}
		payload := fmt.Sprintf("wrap-%04d", i)
		if err := leader.Propose([]byte(payload), func(err error) {
			if err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
			committed++
			post(i + 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	post(0)
	c.k.RunFor(100 * sim.Millisecond)
	if committed != total {
		t.Fatalf("committed %d of %d across ring wraps", committed, total)
	}
	for i := 1; i < 3; i++ {
		if len(c.applied[i]) < total-1 { // the tail may await a commit bump
			t.Fatalf("node %d applied %d entries, want ≥ %d", i, len(c.applied[i]), total-1)
		}
		for j, v := range c.applied[i] {
			if v != fmt.Sprintf("wrap-%04d", j) {
				t.Fatalf("node %d applied %q at %d", i, v, j)
			}
		}
	}
}

func TestHeartbeatsDisabled(t *testing.T) {
	// With heartbeats off (benchmark mode) there is no election: the
	// first node never sees peers and cannot lead.
	c := newCluster(t, 3, func(cfg *mu.Config) { cfg.DisableHeartbeats = true })
	c.k.RunFor(10 * sim.Millisecond)
	for _, n := range c.nodes {
		if n.IsLeader() {
			t.Fatal("a node led without heartbeats")
		}
	}
}
