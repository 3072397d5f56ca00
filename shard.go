package p4ce

import (
	"time"

	"p4ce/internal/sim"
)

// Shard is one independent consensus group of a sharded cluster: its
// own machines, logs and leader, replicated through its own multicast/
// gather group on the shared switch. Shards fail and recover
// independently — a leader outage or switch-group loss in one shard
// never stalls the others — while sharing the simulation kernel, the
// fabric, and (in P4CE mode) the programmable switch's data plane.
type Shard struct {
	cluster *Cluster
	index   int
	kernel  *sim.Kernel // the shard's scheduling domain
	nodes   []*Node
}

// Index returns the shard's position in the cluster (0-based).
func (s *Shard) Index() int { return s.index }

// Nodes returns the shard's machines in identifier order. Machine
// identifiers are shard-local: every shard numbers its machines
// 0..Nodes-1, and the lowest live identifier leads.
func (s *Shard) Nodes() []*Node { return s.nodes }

// Node returns the shard's machine i.
func (s *Shard) Node(i int) *Node { return s.nodes[i] }

// After schedules fn to run d from now on the shard's scheduling
// domain. This is the one place to call into the shard's machines
// (Propose, Client.Submit, Crash, stats reads) from a workload
// callback, at every partition count: the callback executes on the
// shard's domain, under its clock, never racing another partition.
// Fabric actions go through Cluster.After.
func (s *Shard) After(d time.Duration, fn func()) {
	s.kernel.Schedule(simDuration(d), fn)
}

// Now returns the shard domain's current simulated time. Inside an
// After callback this is the shard's own clock (which may run up to one
// lookahead ahead of or behind other domains mid-window); between Run
// calls every domain agrees.
func (s *Shard) Now() time.Duration { return time.Duration(s.kernel.Now()) }

// Leader returns the shard's current leader, or nil. Crashed machines
// are skipped; among live claimants the highest term wins.
func (s *Shard) Leader() *Node {
	var best *Node
	for _, n := range s.nodes {
		if n.mu.Crashed() || !n.mu.IsLeader() {
			continue
		}
		if best == nil || n.mu.Term() > best.mu.Term() {
			best = n
		}
	}
	return best
}
