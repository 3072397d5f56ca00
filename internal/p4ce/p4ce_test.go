package p4ce

import (
	"bytes"
	"errors"
	"testing"

	"p4ce/internal/cm"
	"p4ce/internal/rnic"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/tofino"
)

// fabric is a leader, n replicas and a P4CE switch.
type fabric struct {
	k        *sim.Kernel
	sw       *tofino.Switch
	dp       *Dataplane
	cp       *ControlPlane
	leader   *rnic.NIC
	leaderCM *cm.Agent
	replicas []*rnic.NIC
	logs     []*rnic.MR
	agents   []*cm.Agent
	// hostPorts/swPorts record both ends of every cable in attach order
	// (leader first, then the replicas) so loss tests can script drops on
	// a specific link and direction.
	hostPorts []*simnet.Port
	swPorts   []*simnet.Port
}

// oneSwitch is the single-switch FabricView: one rack, served by sw,
// holding every address sw has a route for.
type oneSwitch struct{ sw *tofino.Switch }

func (v oneSwitch) RackOf(addr simnet.Addr) (int, bool) {
	_, ok := v.sw.L3Lookup(addr)
	return 0, ok
}
func (v oneSwitch) ToR(int) *tofino.Switch  { return v.sw }
func (v oneSwitch) Racks() int              { return 1 }
func (v oneSwitch) Standby() *tofino.Switch { return nil }

func newFabric(t *testing.T, nReplicas int, mode DropMode) *fabric {
	t.Helper()
	return newFabricNICs(t, nReplicas, mode, nil)
}

// newFabricNICs is newFabric with replica i's NIC built from
// replicaNIC(i) instead of the default card (nil: every card default).
func newFabricNICs(t *testing.T, nReplicas int, mode DropMode, replicaNIC func(i int) rnic.Config) *fabric {
	t.Helper()
	k := sim.NewKernel(11)
	f := &fabric{k: k}
	f.sw = tofino.New(k, "tofino", simnet.AddrFrom(10, 0, 0, 254), tofino.DefaultConfig())
	f.dp = NewDataplane(mode)
	f.sw.SetProgram(f.dp)
	f.cp = NewControlPlane(oneSwitch{f.sw}, func(*tofino.Switch) *Dataplane { return f.dp })

	attach := func(ip simnet.Addr, cfg rnic.Config) *rnic.NIC {
		nic := rnic.New(k, cfg, ip)
		hostPort := simnet.NewPort(k, ip.String(), nil)
		pid, swPort := f.sw.AddPort(ip.String())
		simnet.Connect(hostPort, swPort, simnet.DefaultLinkConfig())
		f.sw.BindAddr(ip, pid)
		nic.AttachPort(hostPort)
		f.hostPorts = append(f.hostPorts, hostPort)
		f.swPorts = append(f.swPorts, swPort)
		return nic
	}

	f.leader = attach(simnet.AddrFrom(10, 0, 0, 1), rnic.DefaultConfig())
	f.leaderCM = cm.NewAgent(f.leader, cm.DefaultConfig())
	for i := 0; i < nReplicas; i++ {
		cfg := rnic.DefaultConfig()
		if replicaNIC != nil {
			cfg = replicaNIC(i)
		}
		nic := attach(simnet.AddrFrom(10, 0, 0, byte(2+i)), cfg)
		logMR := nic.RegisterMR(0x100000*uint64(i+1), make([]byte, 64<<10),
			rnic.AccessRemoteRead|rnic.AccessRemoteWrite)
		agent := cm.NewAgent(nic, cm.DefaultConfig())
		agent.SetAcceptFunc(func(from simnet.Addr, priv []byte) (*cm.Accept, error) {
			// The request's private data names the group's leader; fence
			// the log to {leader, switch}.
			owner, err := roce.UnmarshalReplicaSet(priv)
			if err != nil || len(owner.Replicas) != 1 {
				return nil, errors.New("bad owner")
			}
			logMR.RestrictWriter(owner.Replicas[0], f.sw.IP())
			return &cm.Accept{MR: logMR}, nil
		})
		f.replicas = append(f.replicas, nic)
		f.logs = append(f.logs, logMR)
		f.agents = append(f.agents, agent)
	}
	return f
}

// dialGroup establishes the leader's communication group.
func (f *fabric) dialGroup(t *testing.T) *cm.Conn {
	t.Helper()
	rs := roce.ReplicaSet{}
	for _, r := range f.replicas {
		rs.Replicas = append(rs.Replicas, r.IP())
	}
	priv, err := rs.MarshalReplicaSet()
	if err != nil {
		t.Fatal(err)
	}
	var conn *cm.Conn
	f.leaderCM.Dial(f.sw.IP(), priv, func(c *cm.Conn, err error) {
		if err != nil {
			t.Fatalf("group dial: %v", err)
		}
		conn = c
	})
	f.k.RunUntil(f.k.Now() + 200*sim.Millisecond)
	if conn == nil {
		t.Fatal("group setup did not complete")
	}
	return conn
}

func TestGroupSetup(t *testing.T) {
	f := newFabric(t, 2, DropInIngress)
	start := f.k.Now()
	conn := f.dialGroup(t)
	elapsed := f.k.Now() // RunUntil leaves the clock at the horizon; use Groups below for state
	_ = elapsed
	if conn.RemoteVA != 0 {
		t.Fatalf("advertised virtual address = %#x, want 0", conn.RemoteVA)
	}
	if conn.RemoteRKey == 0 {
		t.Fatal("no virtual R_key advertised")
	}
	if conn.RemoteBufLen != 64<<10 {
		t.Fatalf("advertised buffer = %d, want min replica log size", conn.RemoteBufLen)
	}
	groups := f.cp.Groups()
	if len(groups) != 1 {
		t.Fatalf("groups installed = %d, want 1", len(groups))
	}
	g := groups[0]
	if g.Leader != f.leader.IP() || g.F != 1 || len(g.Replicas) != 2 {
		t.Fatalf("group = %+v", g)
	}
	_ = start
}

func TestGroupSetupTakesReconfigDelay(t *testing.T) {
	f := newFabric(t, 2, DropInIngress)
	rs := roce.ReplicaSet{Replicas: []simnet.Addr{f.replicas[0].IP(), f.replicas[1].IP()}}
	priv, _ := rs.MarshalReplicaSet()
	var doneAt sim.Time
	f.leaderCM.Dial(f.sw.IP(), priv, func(c *cm.Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		doneAt = f.k.Now()
	})
	f.k.RunUntil(200 * sim.Millisecond)
	want := ReconfigDelay
	if doneAt < want || doneAt > want+5*sim.Millisecond {
		t.Fatalf("group ready after %v, want ≈%v", doneAt, want)
	}
}

func TestScatterGatherSingleWrite(t *testing.T) {
	for _, n := range []int{2, 4} {
		f := newFabric(t, n, DropInIngress)
		conn := f.dialGroup(t)
		payload := []byte("replicated entry")
		var done bool
		if err := conn.QP.PostWrite(payload, 128, conn.RemoteRKey, func(err error) {
			if err != nil {
				t.Fatalf("n=%d: write: %v", n, err)
			}
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		f.k.RunFor(sim.Millisecond)
		if !done {
			t.Fatalf("n=%d: write never acknowledged", n)
		}
		for i, log := range f.logs {
			if !bytes.Equal(log.Bytes()[128:128+len(payload)], payload) {
				t.Fatalf("n=%d: replica %d log missing entry", n, i)
			}
		}
		// Exactly one ACK reaches the leader; the rest are absorbed.
		wantF := (n + 1) / 2
		if f.dp.Stats.AcksForwarded != 1 {
			t.Fatalf("n=%d: AcksForwarded = %d, want 1", n, f.dp.Stats.AcksForwarded)
		}
		if f.dp.Stats.AcksAggregated != uint64(n-1) {
			t.Fatalf("n=%d: AcksAggregated = %d, want %d", n, f.dp.Stats.AcksAggregated, n-1)
		}
		if f.dp.Stats.Scattered != 1 {
			t.Fatalf("n=%d: Scattered = %d, want 1", n, f.dp.Stats.Scattered)
		}
		_ = wantF
	}
}

func TestScatterMultiPacketWrite(t *testing.T) {
	f := newFabric(t, 2, DropInIngress)
	conn := f.dialGroup(t)
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var done bool
	if err := conn.QP.PostWrite(payload, 0, conn.RemoteRKey, func(err error) {
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(sim.Millisecond)
	if !done {
		t.Fatal("multi-packet write never acknowledged")
	}
	for i, log := range f.logs {
		if !bytes.Equal(log.Bytes()[:len(payload)], payload) {
			t.Fatalf("replica %d log corrupt", i)
		}
	}
	if f.dp.Stats.Scattered != 5 {
		t.Fatalf("Scattered = %d, want 5 packets", f.dp.Stats.Scattered)
	}
}

func TestPipelinedWrites(t *testing.T) {
	f := newFabric(t, 4, DropInIngress)
	conn := f.dialGroup(t)
	const n = 200
	completed := 0
	for i := 0; i < n; i++ {
		i := i
		payload := []byte{byte(i), byte(i >> 8)}
		if err := conn.QP.PostWrite(payload, uint64(i*2), conn.RemoteRKey, func(err error) {
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	f.k.RunFor(10 * sim.Millisecond)
	if completed != n {
		t.Fatalf("completed %d of %d pipelined writes", completed, n)
	}
	for idx, log := range f.logs {
		for i := 0; i < n; i++ {
			if log.Bytes()[i*2] != byte(i) {
				t.Fatalf("replica %d missing write %d", idx, i)
			}
		}
	}
	if f.dp.Stats.AcksForwarded != n {
		t.Fatalf("AcksForwarded = %d, want %d", f.dp.Stats.AcksForwarded, n)
	}
}

func TestNakForwardedImmediately(t *testing.T) {
	f := newFabric(t, 2, DropInIngress)
	conn := f.dialGroup(t)
	// Fence replica 0 against everyone: its NAK must reach the leader.
	f.logs[0].RestrictWriter(simnet.AddrFrom(99, 99, 99, 99))
	var gotErr error
	if err := conn.QP.PostWrite([]byte("x"), 0, conn.RemoteRKey, func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(sim.Millisecond)
	if !errors.Is(gotErr, rnic.ErrRemoteAccess) {
		t.Fatalf("leader completion = %v, want ErrRemoteAccess (forwarded NAK)", gotErr)
	}
	if f.dp.Stats.NaksForwarded == 0 {
		t.Fatal("no NAK counted as forwarded")
	}
}

func TestSwitchCrashTimesOutLeader(t *testing.T) {
	f := newFabric(t, 2, DropInIngress)
	conn := f.dialGroup(t)
	f.sw.Crash()
	start := f.k.Now()
	var gotErr error
	if err := conn.QP.PostWrite([]byte("x"), 0, conn.RemoteRKey, func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(10 * sim.Millisecond)
	if !errors.Is(gotErr, rnic.ErrRetryExceeded) {
		t.Fatalf("completion = %v, want ErrRetryExceeded", gotErr)
	}
	// Detection = (retries+1) × 131 µs ≈ 1 ms.
	want := sim.Time(rnic.MaxRetries+1) * rnic.AckTimeout
	// Completion callback fires via QP error; allow the last timeout window.
	if d := f.k.Now() - start; d < want {
		t.Fatalf("detected after %v, want ≥ %v", d, want)
	}
}

func TestCrashedReplicaMajorityStillCommits(t *testing.T) {
	f := newFabric(t, 4, DropInIngress) // f = 2
	conn := f.dialGroup(t)
	// Crash one replica: 3 ACKs still arrive, 2 suffice.
	// Cut its link by downing the host port side.
	f.k.Schedule(0, func() {})
	f.sw.BindAddr(f.replicas[3].IP(), 1<<10) // route to nowhere: drops at egress
	var done bool
	if err := conn.QP.PostWrite([]byte("still commits"), 0, conn.RemoteRKey, func(err error) {
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(2 * sim.Millisecond)
	if !done {
		t.Fatal("write did not commit with a majority of replicas")
	}
}

func TestRemoveReplicaReconfigures(t *testing.T) {
	f := newFabric(t, 4, DropInIngress)
	_ = f.dialGroup(t)
	var doneAt sim.Time
	start := f.k.Now()
	f.cp.RemoveReplica(f.leader.IP(), f.replicas[3].IP(), func(err error) {
		if err != nil {
			t.Fatalf("RemoveReplica: %v", err)
		}
		doneAt = f.k.Now()
	})
	f.k.RunFor(100 * sim.Millisecond)
	if doneAt-start < ReconfigDelay {
		t.Fatalf("reconfiguration took %v, want ≥ 40ms", doneAt-start)
	}
	groups := f.cp.Groups()
	if len(groups[0].Replicas) != 3 || groups[0].F != 2 {
		t.Fatalf("group after removal = %+v", groups[0])
	}
}

func TestDestroyGroup(t *testing.T) {
	f := newFabric(t, 2, DropInIngress)
	conn := f.dialGroup(t)
	var removed bool
	f.cp.DestroyGroup(f.leader.IP(), func(err error) {
		if err != nil {
			t.Fatalf("DestroyGroup: %v", err)
		}
		removed = true
	})
	f.k.RunFor(50 * sim.Millisecond)
	if !removed {
		t.Fatal("group not destroyed")
	}
	// Writes to the withdrawn BCast QP now vanish (leader times out).
	var gotErr error
	if err := conn.QP.PostWrite([]byte("x"), 0, conn.RemoteRKey, func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(15 * sim.Millisecond)
	if !errors.Is(gotErr, rnic.ErrRetryExceeded) {
		t.Fatalf("write after destroy = %v, want timeout", gotErr)
	}
}

func TestEgressDropModeStillCorrect(t *testing.T) {
	// The ablation placement must deliver identical protocol behaviour —
	// only its parser-capacity profile differs.
	f := newFabric(t, 4, DropInLeaderEgress)
	conn := f.dialGroup(t)
	const n = 50
	completed := 0
	for i := 0; i < n; i++ {
		if err := conn.QP.PostWrite([]byte{byte(i)}, uint64(i), conn.RemoteRKey, func(err error) {
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	f.k.RunFor(10 * sim.Millisecond)
	if completed != n {
		t.Fatalf("completed %d of %d in egress-drop mode", completed, n)
	}
	if f.dp.Stats.AcksForwarded != n {
		t.Fatalf("AcksForwarded = %d, want %d", f.dp.Stats.AcksForwarded, n)
	}
}

func TestCreditAggregationTracksSlowestReplica(t *testing.T) {
	// Replica 1 is slow: each write holds one of its 8 responder slots
	// for 1 ms, so the credits it advertises sag below replica 0's
	// saturated 31 while a burst is in flight.
	f := newFabricNICs(t, 2, DropInIngress, func(i int) rnic.Config {
		cfg := rnic.DefaultConfig()
		if i == 1 {
			cfg.ResponderSlots = 8
			cfg.ApplyDelay = sim.Millisecond
		}
		return cfg
	})
	conn := f.dialGroup(t)

	// reported[i] is the last credit count replica i's ACKs brought to
	// the switch. The quorum of one completes on whichever ACK arrives
	// first, before the other replica's count for the same write is in,
	// so the forwarded minimum is taken over what the switch had seen
	// then: slowAtFast snapshots replica 1's count at each of replica
	// 0's arrivals (and equals its latest one when replica 1 was first).
	reported := make([]int, len(f.replicas))
	slowAtFast := 0
	for i := range f.replicas {
		f.swPorts[1+i].AddTap(func(dir simnet.TapDirection, frame []byte) {
			var p roce.Packet
			if dir != simnet.TapRx || roce.UnmarshalInto(frame, &p) != nil || !isAck(&p) {
				return
			}
			reported[i] = int(p.Syndrome.Value())
			if i == 0 {
				slowAtFast = reported[1]
			}
		})
	}
	burst := func(n int) {
		t.Helper()
		done := 0
		for i := 0; i < n; i++ {
			if err := conn.QP.PostWrite([]byte{1}, uint64(i), conn.RemoteRKey, func(err error) {
				if err != nil {
					t.Fatalf("write: %v", err)
				}
				done++
			}); err != nil {
				t.Fatal(err)
			}
		}
		f.k.RunFor(500 * sim.Microsecond) // inside the slow replica's 1 ms hold
		if done != n {
			t.Fatalf("completed %d of %d", done, n)
		}
	}

	// While replica 1's slots are held, the forwarded ACK must carry
	// min(credits) — replica 1's count — never the fast replica's.
	burst(6)
	held := conn.QP.Credits()
	if held != slowAtFast || held >= reported[0] {
		t.Fatalf("leader credits = %d, want the slow replica's %d (the fast one advertises %d)",
			held, slowAtFast, reported[0])
	}

	// Drained: the next write brings the slow replica's idle count (its
	// slots less the one the write holds) to the switch, and the write
	// after it carries that count to the leader, which recovers.
	f.k.RunFor(5 * sim.Millisecond)
	burst(2)
	if got := conn.QP.Credits(); got != slowAtFast || got <= held {
		t.Fatalf("leader credits after the drain = %d, want the slow replica's %d (above %d)",
			got, slowAtFast, held)
	}

	// With every replica fast and idle, min credit = 31 ("unlimited"),
	// which the requester maps to its full window.
	f = newFabric(t, 2, DropInIngress)
	conn = f.dialGroup(t)
	burst(10)
	if got := conn.QP.Credits(); got != rnic.DefaultConfig().MaxOutstanding {
		t.Fatalf("leader credits = %d, want full window", got)
	}
}

func TestVirtualRKeyValidated(t *testing.T) {
	f := newFabric(t, 2, DropInIngress)
	conn := f.dialGroup(t)
	var gotErr error
	if err := conn.QP.PostWrite([]byte("x"), 0, conn.RemoteRKey+1, func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(15 * sim.Millisecond)
	if !errors.Is(gotErr, rnic.ErrRetryExceeded) {
		t.Fatalf("bad-rkey write = %v, want drop+timeout", gotErr)
	}
	if f.dp.Stats.BadRKeyDrops == 0 {
		t.Fatal("bad R_key not counted")
	}
}

func TestTwoGroupsInParallel(t *testing.T) {
	// P4CE supports multiple consensus groups in parallel (§IV-A).
	f := newFabric(t, 2, DropInIngress)
	connA := f.dialGroup(t)

	// A second "leader" (one of the replicas) opens its own group over
	// the other two machines.
	secondCM := f.agents[0]
	rs := roce.ReplicaSet{Replicas: []simnet.Addr{f.leader.IP(), f.replicas[1].IP()}}
	priv, _ := rs.MarshalReplicaSet()
	// The leader machine must accept inbound group connections too.
	leaderLog := f.leader.RegisterMR(0x900000, make([]byte, 4096), rnic.AccessRemoteRead|rnic.AccessRemoteWrite)
	f.leaderCM.SetAcceptFunc(func(from simnet.Addr, p []byte) (*cm.Accept, error) {
		return &cm.Accept{MR: leaderLog}, nil
	})
	var connB *cm.Conn
	secondCM.Dial(f.sw.IP(), priv, func(c *cm.Conn, err error) {
		if err != nil {
			t.Fatalf("second group dial: %v", err)
		}
		connB = c
	})
	f.k.RunFor(200 * sim.Millisecond)
	if connB == nil {
		t.Fatal("second group not established")
	}
	if len(f.cp.Groups()) != 2 {
		t.Fatalf("groups = %d, want 2", len(f.cp.Groups()))
	}

	okA, okB := false, false
	if err := connA.QP.PostWrite([]byte("groupA"), 0, connA.RemoteRKey, func(err error) {
		okA = err == nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := connB.QP.PostWrite([]byte("groupB"), 0, connB.RemoteRKey, func(err error) {
		okB = err == nil
	}); err != nil {
		t.Fatal(err)
	}
	f.k.RunFor(5 * sim.Millisecond)
	if !okA || !okB {
		t.Fatalf("parallel groups: A=%v B=%v", okA, okB)
	}
	if !bytes.Equal(leaderLog.Bytes()[:6], []byte("groupB")) {
		t.Fatal("second group write missing at the leader machine")
	}
}
