package mu

import "p4ce/internal/sim"

// Protocol constants: no experiment varies them. DESIGN.md §5 names the
// published number each stands for, or marks it a simulator choice.
const (
	// ControlVA and LogVA are the virtual base addresses of the control
	// region and the log region.
	ControlVA = 0x1000
	LogVA     = 0x100000

	// HeartbeatInterval is how often a machine increments its heartbeat
	// counter: Mu's 20 µs pulse.
	HeartbeatInterval = 20 * sim.Microsecond
	// MonitorInterval is how often a machine RDMA-reads each peer's
	// control region.
	MonitorInterval = 20 * sim.Microsecond
	// LivenessTimeout declares a peer dead when its heartbeat counter has
	// not changed for this long (three missed pulses).
	LivenessTimeout = 60 * sim.Microsecond

	// CommitSyncInterval bounds how long a committed entry may remain
	// unannounced to replicas before the leader appends a no-op carrying
	// the new commit index.
	CommitSyncInterval = 500 * sim.Microsecond

	// CatchUpWindow is how many recent entries every machine keeps
	// encoded in memory for re-replication during view changes. The
	// cache also holds no more encoded bytes than one log ring
	// (Config.LogSize), the most a real machine can re-send from its log:
	// 4 096 entries or one log ring of bytes, whichever is fewer. Peers
	// lagging further than this are excluded (snapshot transfer is out of
	// scope, as it is in the paper's evaluation).
	CatchUpWindow = 4096

	// BatchMaxBytes caps the framed payload size of one batch entry;
	// reaching it flushes immediately.
	BatchMaxBytes = 64 << 10
)

// Config carries the protocol knobs an experiment varies. Defaults are
// tuned so the simulated cluster lands the paper's measured fail-over
// and throughput numbers (see DESIGN.md §5).
type Config struct {
	// LogSize is the byte size of every machine's replicated log ring.
	LogSize int

	// DisableHeartbeats turns failure detection off entirely (steady-state
	// throughput benchmarks, where the monitor traffic is pure noise).
	DisableHeartbeats bool

	// LeaderTakeoverDelay aggregates what a new leader pays before it may
	// write: reconfiguring queue-pair permissions on a majority of
	// replicas (the 0.9 ms Table IV charges to Mu's leader change).
	LeaderTakeoverDelay sim.Time

	// CPUPostCost is the leader CPU time to build and post one RDMA
	// request; CPUAckCost the time to process one completion. Together
	// they reproduce the paper's consensus/s ceilings (§V-C).
	CPUPostCost sim.Time
	CPUAckCost  sim.Time

	// MaxInflight caps the log entries the leader keeps in flight before
	// the adaptive batcher starts coalescing proposals (see batch.go).
	// Below the cap, proposals take the classic one-op-one-entry path
	// unchanged. Zero means defaultMaxInflight.
	MaxInflight int
	// BatchMaxOps caps the operations coalesced into one FlagBatch
	// entry; reaching it flushes immediately. Values ≤ 1 disable
	// batching entirely — the DefaultConfig choice, keeping classic
	// one-op-one-entry semantics; the cluster facade opts in.
	BatchMaxOps int
	// BatchMaxDelay bounds how long a queued operation may wait for
	// more company before the batcher flushes anyway.
	BatchMaxDelay sim.Time
}

// DefaultConfig returns the calibrated testbed configuration.
func DefaultConfig() Config {
	return Config{
		LogSize:             4 << 20,
		LeaderTakeoverDelay: 750 * sim.Microsecond,
		CPUPostCost:         250 * sim.Nanosecond,
		CPUAckCost:          185 * sim.Nanosecond,
		MaxInflight:         defaultMaxInflight,
		BatchMaxOps:         1, // batching off; Cluster turns it on
		BatchMaxDelay:       10 * sim.Microsecond,
	}
}

// controlRegionBytes is the layout read by peers: heartbeat | term |
// lastIndex | lastTerm | commitIndex | ringOffset (u64 each).
const controlRegionBytes = 48
