package p4ce

import (
	"errors"
	"fmt"
	"io"
	"time"

	"p4ce/internal/chaos"
	"p4ce/internal/core"
	"p4ce/internal/fabric"
	"p4ce/internal/metrics"
	"p4ce/internal/mu"
	"p4ce/internal/otrace"
	swp4ce "p4ce/internal/p4ce"
	"p4ce/internal/rnic"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/telemetry"
	"p4ce/internal/tofino"
	"p4ce/internal/trace"
)

// Cluster errors.
var (
	// ErrNoLeader reports that no machine leads within the deadline.
	ErrNoLeader = errors.New("p4ce: no leader elected")
)

// Cluster is a simulated testbed: n machines cabled to a switch fabric
// of programmable switches (and optionally to a spare switch: a
// standby, or a plain backup), running the consensus engine. All
// activity happens on a deterministic virtual clock that only advances
// through the Run methods.
type Cluster struct {
	opts   Options
	kernel *sim.Kernel // fabric domain (0); shard s runs on domain 1+s
	group  *sim.Group
	cp     *swp4ce.ControlPlane
	nodes  []*Node  // all machines, shard-major
	shards []*Shard // one consensus group each, sharing the fabric

	// The switch fabric: one ToR and no spine for the paper's testbed,
	// Options.Topology otherwise. dps holds each leaf-tier switch's
	// program instance.
	fabric       *fabric.Topology
	dps          map[*tofino.Switch]*swp4ce.Dataplane
	spineHandled []bool // supervisor: spine failovers already scheduled
	rackHandled  []bool // supervisor: rack failovers already scheduled

	tl *telemetry.Timeline // non-nil with Options.EnableTelemetry
}

// NewCluster builds the testbed. Nothing runs until Run is called.
func NewCluster(opts Options) *Cluster {
	opts = opts.withDefaults()
	// Domain 0 carries the switch fabric and the management plane,
	// domain 1+s carries shard s. The conservative lookahead is the
	// minimum link propagation delay — every cross-domain frame is at
	// least one cable flight away, so partitions may execute one flight
	// time ahead of each other without reordering anything.
	g := sim.NewGroup(opts.Seed, 1+opts.Shards, opts.Partitions,
		simnet.DefaultLinkConfig().Propagation)
	k := g.Root()
	if opts.EnableMetrics {
		// Attach before any device is constructed: components resolve
		// their instrument handles exactly once, at build time.
		g.SetMetrics(metrics.New())
	}
	if opts.EnableTracing {
		// Same rule as metrics: the tracer must exist before NICs and
		// nodes are built, because they bind their trace components once.
		// The fallback clock is the fabric domain's; components on shard
		// domains register their own clock through ComponentAt.
		g.SetTracer(otrace.New(func() int64 { return int64(k.Now()) }))
	}
	c := &Cluster{opts: opts, kernel: k, group: g}

	swCfg := tofino.DefaultConfig()
	if opts.TuneSwitch != nil {
		opts.TuneSwitch(&swCfg)
	}
	dropMode := swp4ce.DropInIngress
	if opts.AckDropInLeaderEgress {
		dropMode = swp4ce.DropInLeaderEgress
	}
	spec := fabric.Spec{Racks: 1, Backup: opts.BackupFabric}
	if t := opts.Topology; t != nil {
		spec = fabric.Spec{Racks: t.Racks, Spines: t.Spines, Standby: t.Standby}
	}
	// Every ToR (and the standby, which must be ready the instant it
	// adopts a rack) runs its own instance of the P4CE program; the
	// spines (and a plain backup) stay L3. One control plane spans them
	// all, the way one operator drives every BfRt target.
	c.fabric = fabric.Build(k, spec, swCfg)
	c.dps = make(map[*tofino.Switch]*swp4ce.Dataplane)
	for _, sw := range c.fabric.LeafTier() {
		dp := swp4ce.NewDataplane(dropMode)
		sw.SetProgram(dp)
		c.dps[sw] = dp
	}
	c.cp = swp4ce.NewControlPlane(c.fabric, func(sw *tofino.Switch) *swp4ce.Dataplane { return c.dps[sw] })

	for s := 0; s < opts.Shards; s++ {
		c.buildShard(s)
	}
	if opts.EnableTelemetry {
		// After every shard: the samplers resolve instrument handles
		// that the shards' components bound during construction.
		c.buildTelemetry()
	}
	for _, n := range c.nodes {
		n.mu.Start()
	}
	if c.fabric.SpineCount() > 0 || c.fabric.Standby() != nil || c.fabric.Backup() != nil {
		// Only a spine or a spare switch gives the supervisor a move to
		// make; on the bare one-switch testbed its poll would be events
		// and nothing else.
		c.startFabricSupervisor()
	}
	return c
}

// buildShard wires one consensus group: its own machines, NICs and mu
// nodes, cabled into the fabric (and onto its spare switch). Shard s
// lives in the 10.0.s.0/24 address block, so shard 0 of a single-group
// cluster is byte-identical to the pre-sharding topology. Machine
// identifiers are shard-local (0..Nodes-1); TuneNIC/TuneNode receive
// the global machine index s*Nodes+i.
func (c *Cluster) buildShard(s int) {
	// Each shard's machines — NICs, host ports, protocol nodes — live on
	// the shard's own scheduling domain; only the switch side of each
	// cable stays on the fabric domain.
	opts, k := c.opts, c.group.Kernel(1+s)
	peers := make([]mu.Peer, opts.Nodes)
	for i := range peers {
		peers[i] = mu.Peer{ID: i, Addr: simnet.AddrFrom(10, 0, byte(s), byte(i+1))}
	}
	shard := &Shard{cluster: c, index: s, kernel: k}

	for i := 0; i < opts.Nodes; i++ {
		g := s*opts.Nodes + i // global machine index
		nicCfg := rnic.DefaultConfig()
		if opts.PipelineDepth > 0 {
			nicCfg.MaxOutstanding = opts.PipelineDepth
		}
		if opts.TuneNIC != nil {
			opts.TuneNIC(g, &nicCfg)
		}
		nic := rnic.New(k, nicCfg, peers[i].Addr)

		// Machines are dealt round-robin onto racks, so every rack holds
		// a near-equal share of each shard and a single rack never holds
		// a majority of a 2-rack, odd-sized group.
		rack := i % c.fabric.Racks()
		hostPort := simnet.NewPort(k, peers[i].Addr.String(), nil)
		c.fabric.AttachHost(rack, peers[i].Addr, hostPort)
		nic.AttachPort(hostPort)
		// The spare leg, when the fabric has a spare switch, stays dark
		// until the rack's ToR dies and the supervisor flips this NIC
		// onto it.
		spare := c.fabric.AttachSpare(peers[i].Addr, k)
		if spare != nil {
			nic.AttachSpare(spare)
		}

		muCfg := mu.DefaultConfig()
		muCfg.DisableHeartbeats = opts.DisableHeartbeats
		// The adaptive batcher is on at the cluster layer. Its direct
		// path is byte-identical to classic one-op-one-entry replication
		// while the pipeline has free slots, so unsaturated workloads
		// keep their fingerprints; saturated ones coalesce.
		muCfg.BatchMaxOps = 64
		if opts.BatchMaxOps != 0 {
			muCfg.BatchMaxOps = opts.BatchMaxOps
		}
		if opts.PipelineDepth > 0 {
			muCfg.MaxInflight = opts.PipelineDepth
		}
		if opts.TuneNode != nil {
			opts.TuneNode(g, &muCfg)
		}

		others := make([]mu.Peer, 0, opts.Nodes-1)
		for j, p := range peers {
			if j != i {
				others = append(others, p)
			}
		}
		node := mu.NewNode(muCfg, peers[i], others, nic)

		engCfg := core.Config{}
		if opts.Mode == ModeP4CE {
			// Each machine talks management to its own rack's ToR
			// *identity* address — which survives a standby adoption, so
			// re-acceleration after a ToR failover dials unchanged.
			engCfg = core.DefaultConfig(fabric.ToRIP(rack))
			engCfg.AsyncReconfig = opts.AsyncReconfig
			// The control plane lives on the fabric domain; membership
			// RPCs hop domains instead of calling in.
			engCfg.Management = c.cp
			engCfg.ManagementKernel = c.kernel
		}
		engine := core.New(node, engCfg)
		engine.SetPeers(others)

		n := &Node{
			cluster: c,
			shard:   s,
			mu:      node,
			engine:  engine,
			port:    hostPort,
			spare:   spare,
			rack:    rack,
		}
		c.nodes = append(c.nodes, n)
		shard.nodes = append(shard.nodes, n)
	}
	c.shards = append(c.shards, shard)
}

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) { c.kernel.RunFor(simDuration(d)) }

// Step executes a single simulation event; it reports whether one ran.
func (c *Cluster) Step() bool { return c.kernel.Step() }

// After schedules fn to run d from now on the fabric's scheduling
// domain: the place for fabric actions (CrashSwitch, CrashToR,
// CrashSpine). Whatever touches a shard's machines — Propose,
// Client.Submit, Crash, stats reads — is scheduled with Shard.After
// instead; the kernel panics when a callback running here schedules on
// a shard's domain.
func (c *Cluster) After(d time.Duration, fn func()) {
	c.kernel.Schedule(simDuration(d), fn)
}

// Now returns the fabric domain's current simulated time. Between Run
// calls every domain reads the same horizon, so this is "the" time;
// inside a Shard.After callback, time the shard with Shard.Now.
func (c *Cluster) Now() time.Duration { return time.Duration(c.kernel.Now()) }

// EventsProcessed reports how many simulation events have executed.
// Two same-seed runs must agree on it exactly; determinism tests use it
// as a cheap whole-run fingerprint of the event schedule.
func (c *Cluster) EventsProcessed() uint64 { return c.kernel.Processed() }

// Partitions reports how many kernel partitions (worker lanes, at least
// one) execute the simulation.
func (c *Cluster) Partitions() int { return c.group.Partitions() }

// Metrics returns the cluster-wide registry, or nil unless the cluster
// was built with Options.EnableMetrics. The nil registry is safe to
// query (empty snapshots, nil handles).
func (c *Cluster) Metrics() *metrics.Registry { return c.kernel.Metrics() }

// Tracer returns the cluster-wide causal tracer, or nil unless the
// cluster was built with Options.EnableTracing. The nil tracer is safe
// to query (every method no-ops).
func (c *Cluster) Tracer() *otrace.Tracer { return c.kernel.Tracer() }

// ExportTrace writes every recorded span as Chrome/Perfetto trace-event
// JSON (open in https://ui.perfetto.dev). Same-seed runs export
// byte-identical files. Without Options.EnableTracing it writes an
// empty trace.
func (c *Cluster) ExportTrace(w io.Writer) error {
	return c.kernel.Tracer().WritePerfetto(w)
}

// DumpFlightRecorder writes a human-readable post-mortem: the in-flight
// operations, the most recent completed operations with their per-stage
// latency decomposition, and each component's span ring. Chaos and
// safety harnesses call it automatically when an invariant fails.
func (c *Cluster) DumpFlightRecorder(w io.Writer) error {
	return c.kernel.Tracer().WriteFlight(w)
}

// Nodes returns the machines in shard-major, identifier order (for a
// single-group cluster: simply identifier order).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns machine i (global, shard-major index).
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// ShardCount returns how many independent consensus groups the cluster
// runs (1 unless Options.Shards asked for more).
func (c *Cluster) ShardCount() int { return len(c.shards) }

// Shard returns consensus group s.
func (c *Cluster) Shard(s int) *Shard { return c.shards[s] }

// ShardLeader returns shard s's current leader, or nil.
func (c *Cluster) ShardLeader(s int) *Node { return c.shards[s].Leader() }

// Leader returns shard 0's current leader, or nil — for single-group
// clusters, the cluster leader. Crashed machines are skipped, and when
// a paused "zombie" still claims leadership the claim with the highest
// term wins (the shard's actual leader). Sharded callers address the
// other groups through ShardLeader.
func (c *Cluster) Leader() *Node { return c.shards[0].Leader() }

// RunUntilLeader advances the simulation until a machine leads (and, in
// P4CE mode with synchronous reconfiguration, until the switch group is
// established), or the deadline passes.
func (c *Cluster) RunUntilLeader(deadline time.Duration) (*Node, error) {
	limit := c.kernel.Now() + simDuration(deadline)
	for c.kernel.Now() < limit {
		if !c.kernel.Step() {
			break
		}
		if l := c.Leader(); l != nil {
			if c.opts.Mode == ModeP4CE && !c.opts.AsyncReconfig && !l.Accelerated() {
				continue
			}
			return l, nil
		}
	}
	if l := c.Leader(); l != nil {
		return l, nil
	}
	return nil, ErrNoLeader
}

// RunUntilAllLeaders advances the simulation until every shard has a
// leader (accelerated, in P4CE mode with synchronous reconfiguration),
// or the deadline passes. It returns the leaders indexed by shard.
func (c *Cluster) RunUntilAllLeaders(deadline time.Duration) ([]*Node, error) {
	leaders := make([]*Node, len(c.shards))
	ready := func() bool {
		for s, sh := range c.shards {
			l := sh.Leader()
			if l == nil {
				return false
			}
			if c.opts.Mode == ModeP4CE && !c.opts.AsyncReconfig && !l.Accelerated() {
				return false
			}
			leaders[s] = l
		}
		return true
	}
	limit := c.kernel.Now() + simDuration(deadline)
	for c.kernel.Now() < limit {
		if !c.kernel.Step() {
			break
		}
		if ready() {
			return leaders, nil
		}
	}
	if ready() {
		return leaders, nil
	}
	return nil, ErrNoLeader
}

// ForceLeader installs a leadership verdict on every machine, bypassing
// failure detection. Benchmark clusters use it together with
// DisableHeartbeats to reach a steady state without monitor traffic;
// the permission switching, takeover and transport setup still run the
// real protocol. Drive the cluster with Run afterwards until
// Leader() != nil (and Accelerated(), in P4CE mode).
func (c *Cluster) ForceLeader(id int) {
	for _, n := range c.nodes {
		n.mu.ForceView(id)
	}
}

// CrashSwitch powers rack 0's ToR off: the programmable switch of the
// one-switch testbed, and on a leaf-spine fabric the switch serving the
// default leader, whose loss exercises the standby adoption path.
func (c *Cluster) CrashSwitch() { c.fabric.OriginalToR(0).Crash() }

// SwitchCrashed reports whether rack 0's ToR is down.
func (c *Cluster) SwitchCrashed() bool { return c.fabric.OriginalToR(0).Crashed() }

// Fabric returns the switch topology: one rack and no spine unless
// Options.Topology asked for a leaf-spine fabric.
func (c *Cluster) Fabric() *fabric.Topology { return c.fabric }

// CrashToR powers rack r's original ToR switch off.
func (c *Cluster) CrashToR(r int) { c.fabric.OriginalToR(r).Crash() }

// CrashSpine powers spine m off (leaf-spine fabric).
func (c *Cluster) CrashSpine(m int) { c.fabric.Spine(m).Crash() }

// SwitchStats returns the data-plane program counters summed across
// every ToR and the standby, so AcksUpForwarded counts all spine
// crossings fabric-wide.
func (c *Cluster) SwitchStats() swp4ce.DataplaneStats {
	var sum swp4ce.DataplaneStats
	for _, sw := range c.fabric.LeafTier() {
		s := c.dps[sw].Stats
		sum.Scattered += s.Scattered
		sum.ScatterRetransmits += s.ScatterRetransmits
		sum.AcksAggregated += s.AcksAggregated
		sum.AcksForwarded += s.AcksForwarded
		sum.AcksUpForwarded += s.AcksUpForwarded
		sum.PartialsAggregated += s.PartialsAggregated
		sum.NaksForwarded += s.NaksForwarded
		sum.BadRKeyDrops += s.BadRKeyDrops
		sum.UnknownQPDrops += s.UnknownQPDrops
		sum.StaleAckDrops += s.StaleAckDrops
	}
	return sum
}

// FabricStats returns the switch pipeline counters summed across every
// switch of the fabric (ToRs, spines, standby).
func (c *Cluster) FabricStats() tofino.Stats {
	var sum tofino.Stats
	for _, sw := range c.fabric.Switches() {
		s := sw.Stats
		sum.IngressPackets += s.IngressPackets
		sum.EgressPackets += s.EgressPackets
		sum.Forwarded += s.Forwarded
		sum.MulticastIn += s.MulticastIn
		sum.Copies += s.Copies
		sum.Punted += s.Punted
		sum.DroppedIngress += s.DroppedIngress
		sum.DroppedEgress += s.DroppedEgress
		sum.ParseErrors += s.ParseErrors
	}
	return sum
}

// startFabricSupervisor begins the fabric management plane's health
// poll: every few milliseconds (BFD-style liveness, coarse enough to
// stay cheap) it scans the switch tier for crashes and schedules the
// move for whatever it finds — rerouting around a dead spine, or moving
// a dead ToR's hosts onto their spare legs. It is the cluster's only
// failover trigger, and runs on the fabric scheduling domain, so every
// decision is a plain deterministic event regardless of partition
// count.
func (c *Cluster) startFabricSupervisor() {
	const poll = 5 * sim.Millisecond
	c.spineHandled = make([]bool, c.fabric.SpineCount())
	c.rackHandled = make([]bool, c.fabric.Racks())
	var tick func()
	tick = func() {
		c.superviseFabric()
		c.kernel.Schedule(poll, tick)
	}
	c.kernel.Schedule(poll, tick)
}

// superviseFabric is one health-poll pass.
func (c *Cluster) superviseFabric() {
	f := c.fabric
	for m := 0; m < f.SpineCount(); m++ {
		if c.spineHandled[m] || !f.Spine(m).Crashed() {
			continue
		}
		c.spineHandled[m] = true
		m := m
		c.kernel.Schedule(swp4ce.ReconfigDelay, func() {
			if !f.Spine(m).Crashed() {
				c.spineHandled[m] = false // came back before reconfig
				return
			}
			f.RerouteAroundSpine(m)
			// Re-resolve every group's forwarding ports on the rerouted
			// tables. Register state is untouched: in-flight gathers
			// survive, the leader's go-back-N refills whatever the dead
			// spine swallowed.
			c.cp.ReresolveFabricPorts()
		})
	}
	for r := 0; r < f.Racks(); r++ {
		if c.rackHandled[r] || !f.ToR(r).Crashed() {
			continue
		}
		delay := swp4ce.ReconfigDelay
		standby := f.Standby() != nil && f.AdoptedRack() < 0 && !f.Standby().Crashed()
		switch {
		case standby:
		case f.Backup() != nil && !f.Backup().Crashed():
			delay = fabric.RouteReconvergence
		default:
			continue // no spare to move the rack onto
		}
		c.rackHandled[r] = true
		c.kernel.Schedule(delay, func() { c.failRack(r, standby) })
	}
}

// failRack moves rack r's hosts onto their spare legs, unless the
// rack's ToR came back first. With the standby, order matters: the
// standby owns the rack's routes and identity first, then the
// consensus groups move onto its fresh registers, then the NICs flip.
// Gather state restarts empty — safe, because the leader's go-back-N
// replays every unacknowledged PSN. The plain backup runs no consensus
// program, so its hosts replicate directly from then on; their pending
// handshakes went out on the dead route, so they go out again.
func (c *Cluster) failRack(r int, standby bool) {
	f := c.fabric
	if !f.ToR(r).Crashed() {
		c.rackHandled[r] = false // rebooted before the move
		return
	}
	if standby {
		if !f.AdoptRack(r) {
			return
		}
		c.cp.RehomeRack(r)
	}
	for _, n := range c.nodes {
		if n.rack != r {
			continue
		}
		c.kernel.Call(n.mu.NIC().Kernel(), func() {
			n.mu.NIC().FailoverToSpare()
			if !standby {
				n.engine.DetachSwitch()
				n.mu.CMAgent().ResendPending()
			}
		})
	}
}

// Groups lists the communication groups installed on the switch.
func (c *Cluster) Groups() []swp4ce.GroupInfo { return c.cp.Groups() }

// ChaosEngine builds a seeded fault injector over the cluster's
// topology: every machine's cable (both ends) and NIC become targets,
// and the switch power-cycle hooks wipe and re-program the data plane
// the way a real reboot would — registers, multicast groups and match
// tables are lost, then the control plane reinstalls every group from
// its shadow state after one reconfiguration delay. logf may be nil.
func (c *Cluster) ChaosEngine(seed int64, logf func(string, ...any)) *chaos.Engine {
	cfg := chaos.Config{Seed: seed, Logf: logf}
	// Power-cycling "the switch" means rack 0's ToR (the default
	// leader's): wipe its program state, reboot, reinstall.
	tor0 := c.fabric.OriginalToR(0)
	cfg.PowerOffSwitch = func() {
		c.dps[tor0].Reset()
		tor0.Reboot()
	}
	cfg.PowerOnSwitch = func() {
		tor0.Restore()
		c.cp.ReinstallGroups(nil)
	}
	for r := 0; r < c.fabric.Racks(); r++ {
		sw := c.fabric.OriginalToR(r)
		cfg.Switches = append(cfg.Switches, chaos.SwitchTarget{
			Name: fmt.Sprintf("tor%d", r), Rack: r, Spine: -1,
			Crash: sw.Crash, Restore: sw.Restore,
		})
	}
	for m := 0; m < c.fabric.SpineCount(); m++ {
		sw := c.fabric.Spine(m)
		cfg.Switches = append(cfg.Switches, chaos.SwitchTarget{
			Name: fmt.Sprintf("spine%d", m), Rack: -1, Spine: m,
			Crash: sw.Crash, Restore: sw.Restore,
		})
	}
	for _, il := range c.fabric.InterLinks() {
		cfg.InterLinks = append(cfg.InterLinks, chaos.FabricLink{
			Link: chaos.Link{Name: il.Name, Host: il.A, Fabric: il.B},
			Rack: il.Rack, Spine: il.Spine,
		})
	}
	for _, n := range c.nodes {
		name := fmt.Sprintf("node%d", n.ID())
		if len(c.shards) > 1 {
			name = fmt.Sprintf("s%d/node%d", n.shard, n.ID())
		}
		cfg.Nodes = append(cfg.Nodes, chaos.NodeTarget{
			Name: name,
			Link: chaos.Link{
				Name:   name + "<->switch",
				Host:   n.port,
				Fabric: n.port.Peer(),
			},
			NIC: n.mu.NIC(),
		})
	}
	return chaos.NewEngine(c.kernel, cfg)
}

// DestroySwitchGroup tears the given leader's multicast/gather group
// out of the switch, as a management-plane fault: the leader's next
// accelerated write times out and it falls back to direct replication
// until its engine re-probes the switch. Other shards' groups are
// untouched.
func (c *Cluster) DestroySwitchGroup(leader *Node) {
	c.cp.DestroyGroup(leader.mu.Addr(), nil)
}

// ApplyChaosScenario installs the named fault scenario (see
// chaos.Names) on a fresh engine and returns the engine plus the
// horizon the caller should Run the cluster for so the faults and their
// recovery both complete.
func (c *Cluster) ApplyChaosScenario(name string, seed int64, logf func(string, ...any)) (*chaos.Engine, time.Duration, error) {
	sc, ok := chaos.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("p4ce: unknown chaos scenario %q (have %v)", name, chaos.Names())
	}
	eng := c.ChaosEngine(seed, logf)
	sc.Apply(eng)
	return eng, time.Duration(sc.Horizon), nil
}

// EnableTrace taps every host port with a packet tracer that retains
// the last ringSize frames (decoded RoCE summaries). Pass a non-nil w
// to also stream each frame's one-line summary as it happens. The
// returned tracer exposes the retained events and per-opcode counters.
func (c *Cluster) EnableTrace(w io.Writer, ringSize int, filter trace.Filter) *trace.Tracer {
	tr := trace.New(c.kernel, ringSize, filter)
	if w != nil {
		tr.StreamTo(w)
	}
	for i, n := range c.nodes {
		tr.Tap(n.port, fmt.Sprintf("host%d", i))
		if n.spare != nil {
			tr.Tap(n.spare, fmt.Sprintf("host%d-spare", i))
		}
	}
	return tr
}
