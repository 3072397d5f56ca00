// Package p4ce is a full-system reproduction of "P4CE: Consensus over
// RDMA at Line Speed" (Dulong et al., ICDCS 2024): a replication engine
// that reaches consensus in a single round-trip at the leader's full
// link rate by decoupling the consensus *decision* (a Mu-style leader
// protocol on the host) from the *communication* (RDMA multicast and
// acknowledgment aggregation inside a programmable switch).
//
// Because RDMA NICs and Tofino ASICs are not available here, the entire
// stack runs on a deterministic discrete-event simulation: byte-accurate
// RoCE v2 packets, simulated ConnectX-class NICs with queue pairs,
// memory-region permissions and retransmission, and a PSA-style switch
// model with per-port parser capacity, match-action tables, constrained
// stateful registers and a multicast replication engine. See DESIGN.md
// for the substitution table and EXPERIMENTS.md for paper-vs-measured
// results.
//
// The quickest way in:
//
//	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeP4CE})
//	leader, err := cl.RunUntilLeader(100 * time.Millisecond)
//	if err != nil { ... }
//	leader.Propose([]byte("value"), func(err error) { ... })
//	cl.Run(time.Millisecond)
package p4ce

import (
	"fmt"
	"time"

	"p4ce/internal/mu"
	"p4ce/internal/rnic"
	"p4ce/internal/sim"
	"p4ce/internal/tofino"
)

// Mode selects the communication plane.
type Mode int

// Communication modes.
const (
	// ModeP4CE replicates through the programmable switch (the paper's
	// contribution): one write out, one aggregated ACK back.
	ModeP4CE Mode = iota
	// ModeMu replicates directly to every replica (the baseline): the
	// leader divides its link and aggregates the ACKs itself.
	ModeMu
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeMu {
		return "Mu"
	}
	return "P4CE"
}

// MarshalText writes the mode's name, so a Mode field encodes in JSON
// as "Mu" or "P4CE".
func (m Mode) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText reads "Mu" or "P4CE" and rejects any other name.
func (m *Mode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "Mu":
		*m = ModeMu
	case "P4CE":
		*m = ModeP4CE
	default:
		return fmt.Errorf("p4ce: unknown mode %q", text)
	}
	return nil
}

// Topology sizes an optional leaf-spine switch fabric. Every cluster is
// built as a fabric; nil builds the paper's testbed as its degenerate
// case — one rack, no spine, every machine cabled to one programmable
// ToR. Non-nil builds Racks ToR switches fully meshed to Spines spine
// switches: machines are dealt round-robin onto racks, each ToR runs
// the P4CE program for its local replicas, and the leader's writes
// scatter leader ToR → spines → remote ToRs → replicas while
// acknowledgments aggregate hierarchically (each remote ToR counts its
// rack locally and forwards one partial-count ACK across the spine;
// the leader's ToR makes the majority decision).
type Topology struct {
	// Racks is the ToR (leaf) switch count; machines of every shard are
	// assigned to racks round-robin by machine index. Zero means 2.
	Racks int
	// Spines is the spine switch count; every ToR uplinks to every
	// spine. Zero means 2 (so the fabric has a spine to lose).
	Spines int
	// Standby cables a spare switch into the spine mesh and dual-homes
	// every host to it. When a ToR dies, the fabric supervisor has the
	// standby adopt the dead switch's identity after one control-plane
	// reconfiguration delay (40 ms), reinstalls the rack's groups on it
	// and flips the rack's NICs onto their spare legs.
	Standby bool
}

// withDefaults fills in the unset topology knobs.
func (t *Topology) withDefaults() *Topology {
	if t == nil {
		return nil
	}
	tt := *t
	if tt.Racks == 0 {
		tt.Racks = 2
	}
	if tt.Spines == 0 {
		tt.Spines = 2
	}
	return &tt
}

// Options configures a simulated cluster.
type Options struct {
	// Nodes is the total machine count, leader included (the paper uses
	// 3 and 5, i.e. 2 and 4 replicas).
	Nodes int
	// Mode picks P4CE or the Mu baseline.
	Mode Mode
	// Seed drives the deterministic simulation; identical options and
	// seed replay identically.
	Seed int64
	// Shards installs N independent consensus groups over the one
	// simulated switch: each shard gets its own machines (Nodes each, in
	// the 10.0.<shard>.0/24 block), log regions, and switch multicast/
	// gather group, all sharing the kernel and fabric. Client sessions
	// pin to shards by key hash (see Router / NewClientForKey). Zero or
	// one means the classic single-group cluster.
	Shards int
	// Partitions is the number of worker lanes the kernel runs on, and
	// nothing else: results never depend on it. The switch fabric is
	// scheduling domain 0 and every shard its own domain; the domains
	// are packed onto this many partitions that execute concurrently
	// under a conservative lookahead equal to the minimum link
	// propagation delay (see internal/sim.Group). Same options and seed
	// replay bit-identically at every value; zero means 1, and
	// runtime.NumCPU() (clamped to 1+Shards) buys wall-clock speed.
	//
	// At every value, drive per-shard workloads through
	// Shard.After/Shard.Now (not Cluster.After), so generator callbacks
	// run on — and only observe — their shard's domain.
	Partitions int
	// Topology, when non-nil, builds a leaf-spine multi-switch fabric;
	// nil builds the one-rack, spine-less fabric of the paper's testbed.
	// See Topology. BackupFabric is ignored when it is set: the standby
	// switch plays the spare's role on a leaf-spine fabric.
	Topology *Topology
	// BackupFabric cables every host to a second, plain switch — the
	// "alternative network route" used when the programmable switch
	// dies (§III-A). Only on the single-switch testbed (nil Topology).
	// The fabric supervisor notices the dead switch at its next health
	// poll and, once routing has reconverged (55 ms), moves every host
	// onto its backup leg, where replication runs un-accelerated.
	BackupFabric bool
	// AckDropInLeaderEgress selects the paper's first (slower) ACK
	// aggregation placement for the §IV-D ablation.
	AckDropInLeaderEgress bool
	// AsyncReconfig lets a new leader replicate directly while the
	// switch reconfigures (the paper's Lesson 3 improvement). Off
	// reproduces Table IV as measured.
	AsyncReconfig bool
	// DisableHeartbeats turns failure detection off — steady-state
	// benchmarks use this to keep monitor traffic out of the way.
	DisableHeartbeats bool
	// EnableMetrics attaches a metrics registry to the kernel before any
	// component is built, so every layer (simnet, rnic, tofino, p4ce,
	// mu) records into it. Off by default: the disabled registry hands
	// out nil no-op handles, so the hot paths pay nothing.
	EnableMetrics bool
	// EnableTracing attaches the causal tracer (package otrace) to the
	// kernel before any component is built: every operation's life from
	// client submit through switch pipeline to commit is recorded as
	// spans in per-component ring buffers, exportable as Perfetto JSON
	// (Cluster.ExportTrace) and a flight-recorder dump
	// (Cluster.DumpFlightRecorder). Off by default: the nil tracer
	// no-ops everywhere and the hot paths pay nothing.
	EnableTracing bool
	// EnableTelemetry builds the time-series telemetry pipeline
	// (package telemetry) on top of the metrics registry: one sampler
	// per scheduling domain captures per-shard and per-rack series into
	// fixed rings every TelemetryInterval of simulated time, and an SLO
	// engine evaluates availability/latency/retransmit objectives,
	// emitting a deterministic alert log (Cluster.Telemetry,
	// Cluster.ExportTelemetryJSON, Cluster.ExportOpenMetrics). Implies
	// EnableMetrics. Sampling is consensus-neutral: commits, histories,
	// and trace exports are identical with telemetry on or off.
	EnableTelemetry bool
	// TelemetryInterval overrides the sampling period (simulated time;
	// 0 = 100µs). Only meaningful with EnableTelemetry.
	TelemetryInterval time.Duration
	// PipelineDepth overrides how many requests a queue pair keeps in
	// flight (the testbed allows 16).
	PipelineDepth int
	// BatchMaxOps caps how many client operations the leader's adaptive
	// batcher may coalesce into one log entry once the RDMA pipeline is
	// saturated (0 = 64; 1 disables batching). Below saturation every
	// operation still becomes its own entry.
	BatchMaxOps int
	// Tune hooks, applied last, for experiments that need to reach
	// deeper than the exported knobs. Nil-safe.
	TuneNode   func(i int, cfg *mu.Config)
	TuneNIC    func(i int, cfg *rnic.Config)
	TuneSwitch func(cfg *tofino.Config)
}

// withDefaults fills in the unset options.
func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.EnableTelemetry {
		// The sampler reads metric instruments; without a registry there
		// would be nothing to sample.
		o.EnableMetrics = true
	}
	o.Topology = o.Topology.withDefaults()
	return o
}

// simDuration converts wall-style durations into simulated time.
func simDuration(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) }

// LinkSpeed reports the modelled link rate in bits per second.
func LinkSpeed() float64 { return 100e9 }

// SwitchParserPPS reports the modelled per-port parser capacity.
func SwitchParserPPS() float64 {
	return float64(sim.Second) / float64(tofino.DefaultConfig().ParserServiceTime)
}
