package p4ce

import (
	"time"

	"p4ce/internal/core"
	"p4ce/internal/mu"
	"p4ce/internal/simnet"
)

// Node is one machine of a simulated cluster.
type Node struct {
	cluster *Cluster
	shard   int
	mu      *mu.Node
	engine  *core.Engine
	port    *simnet.Port // primary leg, to the rack's ToR
	spare   *simnet.Port // leg to the fabric's spare switch, or nil
	rack    int          // fabric rack (0 on the single-switch testbed)
}

// Rack returns the fabric rack this machine sits in: always 0 on the
// single-switch testbed, whose one ToR is rack 0's.
func (n *Node) Rack() int { return n.rack }

// Shard returns the index of the consensus group this machine belongs
// to (always 0 in single-group clusters).
func (n *Node) Shard() int { return n.shard }

// ID returns the machine identifier (the live machine with the lowest
// identifier leads).
func (n *Node) ID() int { return n.mu.ID() }

// IsLeader reports whether this machine currently leads.
func (n *Node) IsLeader() bool { return n.mu.IsLeader() }

// LeaderID returns who this machine believes leads (-1 when unknown).
func (n *Node) LeaderID() int { return n.mu.LeaderID() }

// Term returns the current view number.
func (n *Node) Term() uint64 { return n.mu.Term() }

// CommitIndex returns the highest committed log index this machine
// knows about.
func (n *Node) CommitIndex() uint64 { return n.mu.CommitIndex() }

// LastIndex returns the machine's last log index.
func (n *Node) LastIndex() uint64 { return n.mu.LastIndex() }

// AppliedIndex returns the highest log index applied to the state
// machine.
func (n *Node) AppliedIndex() uint64 { return n.mu.AppliedIndex() }

// Accelerated reports whether replication currently flows through the
// programmable switch.
func (n *Node) Accelerated() bool { return n.engine.Accelerated() }

// ReplicationPaths reports how many replicas this machine (as leader)
// has healthy direct write paths to.
func (n *Node) ReplicationPaths() int { return n.mu.ReplicationPaths() }

// Propose submits a value for consensus. done fires exactly once: nil
// when the value is decided (acknowledged by a cluster majority), or an
// error when it must be retried on the new leader. Only the leader
// accepts proposals.
func (n *Node) Propose(data []byte, done func(error)) error {
	return n.engine.Propose(data, done)
}

// OnApply installs the state-machine callback, invoked in log order for
// every committed client value. Batched entries fan out: each client
// operation of the batch is delivered separately, in proposal order,
// all under the batch entry's log index.
func (n *Node) OnApply(fn func(index uint64, data []byte)) {
	n.mu.OnApply = func(e mu.Entry) {
		if e.IsBatch() {
			it := mu.NewBatchIter(e.Data)
			for it.Next() {
				fn(e.Index, it.Op())
			}
			return
		}
		fn(e.Index, e.Data)
	}
}

// OnLeaderChange installs a view-change observer.
func (n *Node) OnLeaderChange(fn func(term uint64, leaderID int)) {
	n.mu.OnLeaderChange = fn
}

// Crash kills the machine: its processes stop and its links go dark.
// Crashed machines never come back (as in the paper's evaluation).
func (n *Node) Crash() { n.mu.Crash() }

// Crashed reports whether the machine was crashed.
func (n *Node) Crashed() bool { return n.mu.Crashed() }

// Pause stops the machine's protocol activity without killing its NIC —
// a "zombie" whose queue pairs stay reachable, exercising fencing.
func (n *Node) Pause() { n.mu.Stop() }

// OnBackupRoute reports whether the fabric moved the machine onto its
// spare leg: the backup fabric, or a leaf-spine fabric's standby.
func (n *Node) OnBackupRoute() bool { return n.mu.NIC().OnSpare() }

// CPUUtilization returns the host core's busy fraction so far.
func (n *Node) CPUUtilization() float64 { return n.mu.CPU().Utilization() }

// CPUBusy returns the host core's cumulative busy time (benchmarks
// compute windowed utilization from deltas of it).
func (n *Node) CPUBusy() time.Duration { return time.Duration(n.mu.CPU().Busy()) }

// Stats returns protocol counters.
func (n *Node) Stats() mu.NodeStats { return n.mu.Stats }

// EngineStats returns acceleration counters.
func (n *Node) EngineStats() core.Stats { return n.engine.Stats }

// NICStats returns datapath counters.
func (n *Node) NICStats() struct {
	TxPackets, RxPackets uint64
	Retransmits          uint64
} {
	s := n.mu.NIC().Stats
	return struct {
		TxPackets, RxPackets uint64
		Retransmits          uint64
	}{s.TxPackets, s.RxPackets, s.Retransmits}
}

// Protocol exposes the underlying protocol node for in-module
// experiments that need deeper access than the facade offers.
func (n *Node) Protocol() *mu.Node { return n.mu }
