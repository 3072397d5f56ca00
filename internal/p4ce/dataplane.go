package p4ce

import (
	"fmt"
	"math/bits"

	"p4ce/internal/metrics"
	"p4ce/internal/otrace"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/tofino"
)

// DropMode selects where sub-majority ACKs are discarded — the paper's
// Lesson in §IV-D: dropping in the replica's ingress scales to 121 Mpps
// per replica, while the first implementation dropped in the leader's
// egress and bottlenecked the whole switch at 121 Mpps total.
type DropMode int

// Drop placements.
const (
	// DropInIngress discards sub-f ACKs in the ingress pipeline of the
	// port they arrived on (the published design).
	DropInIngress DropMode = iota
	// DropInLeaderEgress forwards every ACK to the leader's egress and
	// discards there (the paper's first, slower implementation).
	DropInLeaderEgress
)

// replicaEntry is the per-connection metadata of Table III: everything
// the egress pipeline needs to disguise a copy as a point-to-point
// packet from the switch to that replica.
type replicaEntry struct {
	EpID    uint8 // endpoint identifier (Table III)
	Port    tofino.PortID
	IP      simnet.Addr
	QPN     uint32 // replica's queue pair (rewrite target for DestQP)
	PSNBase uint32 // first PSN the switch uses toward this replica
	VA      uint64 // base virtual address of the replica's log
	RKey    uint32 // replica's real R_key
	BufLen  uint32
}

// rackEntry is a root group's per-remote-rack aggregation state: the
// leaf ToR identity address its partial-count ACKs arrive from, how
// many replicas are racked behind it, and the root's port toward it (a
// multicast member carrying the scatter across the spine).
type rackEntry struct {
	IP       simnet.Addr
	Expected int
	Port     tofino.PortID
}

// group is the per-communication-group metadata of Table II.
type group struct {
	id      tofino.GroupID
	bcastQP uint32 // leader-facing queue pair: writes arriving here scatter
	aggrQP  uint32 // replica-facing queue pair: ACKs arriving here gather

	leaderIP      simnet.Addr
	leaderPort    tofino.PortID
	leaderQPN     uint32 // leader's QP (rewrite target for aggregated ACKs)
	leaderPSNBase uint32 // leader's starting PSN
	virtualRKey   uint32 // R_key advertised to the leader (VA base is zero)

	f        int // positive ACKs required before answering the leader
	replicas []replicaEntry

	// Fabric homing: the switch and program instance holding this
	// group's tables and registers. The root group lives on the
	// leader's ToR (the one switch of a single-switch testbed) and one
	// leaf group on each remote rack's ToR.
	sw       *tofino.Switch
	dp       *Dataplane
	homeRack int // rack whose ToR the group is homed on
	shardID  int // consensus shard, for trace-annotation keys

	// leaf marks a rack-local aggregation group: it counts ACKs from the
	// replicas racked behind this ToR and forwards one partial-count ACK
	// upward to the root ToR (whose coordinates sit in the leader*
	// fields — the leaf's "leader" is the root). f is then the
	// rack-complete count, not a quorum.
	leaf bool

	// racks is the root group's remote-rack membership. rackCnt holds,
	// per (slot, rack), the highest partial count the rack's leaf has
	// reported for the slot's PSN — a max-merge, so duplicate partials
	// are idempotent exactly like duplicate replica ACK bits. rackCred
	// is the per-rack minimum credit, folded into the aggregated ACK's
	// syndrome alongside the local replicas' credits.
	racks    []rackEntry
	rackCnt  *tofino.Register
	rackCred *tofino.Register
	// leaves are the root's per-remote-rack leaf groups, in the same
	// order as racks — the control plane programs, rehomes and tears
	// them down alongside the root.
	leaves []*group

	// Stateful registers (Table II). NumRecv is the paper's per-PSN ACK
	// aggregation state (256 slots → up to 256 un-acknowledged packets
	// per connection, §IV-C), generalized from a plain counter to an
	// ACK-set so recovery under loss is exact — see the invariant at
	// gatherAggregate. slotPSN records which PSN currently owns each
	// slot, and credits holds the most recent credit count per replica.
	numRecv *tofino.Register
	slotPSN *tofino.Register
	credits *tofino.Register

	// armedAt records, per slot, when the most recent scatter armed the
	// aggregation round — the start of the gather-forward latency
	// measurement. Simulation-side observability only: no hardware
	// equivalent is claimed, and the protocol never reads it.
	armedAt []sim.Time

	// oc is the group's trace component (spans for scatter, rewrite and
	// gather-fire), resolved lazily; nil when tracing is disabled.
	oc *otrace.Component

	enabled bool
}

// numRecvSlots is the gather window size (§IV-C).
const numRecvSlots = 256

// Gather slot encoding. Each NumRecv cell is a 32-bit word holding a
// bitmap of the replica EpIDs whose positive ACK for the slot's PSN has
// been seen (bits 0..maxGatherReplicas-1) plus a "forwarded" flag in
// the top bit, set once the aggregated ACK for the current transmission
// round has been emitted toward the leader. On hardware this stays one
// stateful-ALU RMW per packet: bit-OR plus a threshold lookup on the
// (at most 24-bit) set value.
const (
	gatherForwarded = uint32(1) << 31
	// gatherEager is set on a leaf slot when a go-back-N retransmission
	// re-arms it: the leader evidently never committed, which means the
	// leaf's partial (or the root's aggregate) may have been lost, so
	// the leaf forwards a refreshed partial on *every* subsequent local
	// ACK instead of once at rack-complete. The root's max-merge makes
	// the extra partials idempotent; a fresh PSN clears the bit.
	gatherEager = uint32(1) << 30
	// gatherFlagMask covers both bookkeeping bits above the EpID bitmap.
	gatherFlagMask = gatherForwarded | gatherEager
	// maxGatherReplicas bounds a group's replica count to the bitmap
	// width.
	maxGatherReplicas = 24
	// leafRidBase is the replication-id endpoint space for leaf-ToR
	// scatter copies (above any replica EpID, below the 8-bit ceiling).
	leafRidBase = uint8(0xE0)
	// noSlotPSN marks an unoccupied slot; it can never collide with a
	// real 24-bit PSN.
	noSlotPSN = ^uint32(0)
	// creditSaturated is the 5-bit AETH all-ones value, which requesters
	// interpret as "no flow-control limit".
	creditSaturated = 31
)

// replicaByIP finds the member entry for a source address.
func (g *group) replicaByIP(ip simnet.Addr) *replicaEntry {
	for i := range g.replicas {
		if g.replicas[i].IP == ip {
			return &g.replicas[i]
		}
	}
	return nil
}

// rackByIP finds the remote-rack entry a partial-count ACK arrived
// from (the sender is the leaf ToR's identity address, which survives
// standby adoption unchanged).
func (g *group) rackByIP(ip simnet.Addr) int {
	for i := range g.racks {
		if g.racks[i].IP == ip {
			return i
		}
	}
	return -1
}

// minCredit folds the per-replica credit registers — and, on a fabric
// root, the per-rack minimum credits the leaves reported — with the
// subtract-underflow idiom, the only way the ASIC can compare values
// (§IV-D).
func (g *group) minCredit() uint32 {
	first := true
	acc := uint32(0)
	for i := range g.replicas {
		c := g.credits.Read(int(g.replicas[i].EpID))
		if first {
			acc, first = c, false
		} else {
			acc = tofino.MinFold(acc, c)
		}
	}
	for r := range g.racks {
		c := g.rackCred.Read(r)
		if first {
			acc, first = c, false
		} else {
			acc = tofino.MinFold(acc, c)
		}
	}
	return acc
}

// clampCredit saturates a credit count to the AETH syndrome's 5-bit
// field. A bare uint8() conversion wraps counts above 255 — and the
// field's own &0x1F encoding wraps anything above 31 — into a small
// value that falsely throttles the leader; saturating is exact, because
// 31 is the "unlimited" sentinel and any count ≥31 means the same thing
// to the requester.
func clampCredit(c uint32) uint8 {
	if c >= creditSaturated {
		return creditSaturated
	}
	return uint8(c)
}

// resetGatherState returns the group's registers to their
// just-programmed state: every slot unoccupied, every ACK set empty,
// every credit saturated (the first real ACK overwrites it, §IV-A).
// The control plane runs this when the group is first installed and
// again when re-programming a rebooted switch.
func (g *group) resetGatherState() {
	g.numRecv.Clear()
	for i := 0; i < g.slotPSN.Size(); i++ {
		g.slotPSN.Write(i, noSlotPSN)
	}
	for i := range g.replicas {
		g.credits.Write(int(g.replicas[i].EpID), creditSaturated)
	}
	if g.rackCnt != nil {
		g.rackCnt.Clear()
	}
	for r := range g.racks {
		g.rackCred.Write(r, creditSaturated)
	}
}

// scatterEntry resolves a multicast copy's replication id to its group
// and destination replica — or, when rep is nil, to the leaf ToR the
// copy is relayed to untouched (a fabric root's cross-rack copy).
type scatterEntry struct {
	g      *group
	rep    *replicaEntry
	leafIP simnet.Addr
}

// Dataplane is the P4CE switch program (the 949 lines of P4₁₆ in the
// real artifact). It implements tofino.Program.
type Dataplane struct {
	dropMode DropMode

	bcast *tofino.Table[uint32, *group] // BCast QP → group (scatter match, §IV-B)
	aggr  *tofino.Table[uint32, *group] // Aggr QP → group (gather match, §IV-C)
	// byLeaderQPN serves the egress-drop ablation, where counting happens
	// in the leader's egress pipeline.
	byLeaderQPN *tofino.Table[uint32, *group]
	// rid → (group, replica) for egress rewriting of multicast copies.
	rids *tofino.Table[uint16, *scatterEntry]

	// Stats counts program-level events.
	Stats DataplaneStats

	// Metric handles, bound lazily on the first packet (the program has
	// no kernel reference until a switch invokes it). All nil no-ops
	// when the kernel carries no registry.
	mBound        bool
	mScattered    *metrics.Counter
	mScatterRetx  *metrics.Counter
	mFanout       *metrics.Histogram // replicas per scatter (fan-out)
	mAcksAbsorbed *metrics.Counter
	mDupAckDrops  *metrics.Counter
	mAcksFwd      *metrics.Counter
	mAcksUp       *metrics.Counter
	mPartials     *metrics.Counter
	mNaksFwd      *metrics.Counter
	mStaleAcks    *metrics.Counter
	mDrops        *metrics.Counter
	mTableHits    *metrics.Counter
	mGatherLatNs  *metrics.Histogram // scatter arm → aggregated-ACK forward

	// otr is the causal tracer, bound lazily with the metric handles;
	// nil (every call a no-op) when the kernel carries no tracer.
	otr *otrace.Tracer
}

// bindMetrics resolves the program's instrument handles from the
// kernel's registry, once.
func (dp *Dataplane) bindMetrics(m *metrics.Registry) {
	dp.mBound = true
	dp.mScattered = m.Counter("p4ce.scattered")
	dp.mScatterRetx = m.Counter("p4ce.scatter_retransmits")
	dp.mFanout = m.Histogram("p4ce.scatter_fanout")
	dp.mAcksAbsorbed = m.Counter("p4ce.acks_absorbed")
	dp.mDupAckDrops = m.Counter("p4ce.duplicate_ack_drops")
	dp.mAcksFwd = m.Counter("p4ce.acks_forwarded")
	dp.mAcksUp = m.Counter("p4ce.acks_up_forwarded")
	dp.mPartials = m.Counter("p4ce.partials_aggregated")
	dp.mNaksFwd = m.Counter("p4ce.naks_forwarded")
	dp.mStaleAcks = m.Counter("p4ce.stale_ack_drops")
	dp.mDrops = m.Counter("p4ce.drops")
	dp.mTableHits = m.Counter("p4ce.table_hits")
	dp.mGatherLatNs = m.Histogram("p4ce.gather_forward_latency_ns")
}

// DataplaneStats counts the P4CE program's decisions.
type DataplaneStats struct {
	Scattered          uint64 // write packets multicast to the group
	ScatterRetransmits uint64 // of which go-back-N re-sends of a tracked PSN
	AcksAggregated     uint64 // positive ACKs absorbed (sub-quorum or duplicate)
	AcksForwarded      uint64 // aggregated ACKs forwarded to the leader
	AcksUpForwarded    uint64 // leaf→root spine crossings: partial-count ACKs a leaf sent up
	PartialsAggregated uint64 // rack partial counts merged at a root
	NaksForwarded      uint64 // NAK/RNR passed through unconditionally
	BadRKeyDrops       uint64
	UnknownQPDrops     uint64
	StaleAckDrops      uint64 // ACKs for a PSN its slot no longer tracks
}

var _ tofino.Program = (*Dataplane)(nil)

// NewDataplane returns an empty program; the control plane populates it.
func NewDataplane(mode DropMode) *Dataplane {
	return &Dataplane{
		dropMode:    mode,
		bcast:       tofino.NewTable[uint32, *group]("p4ce/bcastQP"),
		aggr:        tofino.NewTable[uint32, *group]("p4ce/aggrQP"),
		byLeaderQPN: tofino.NewTable[uint32, *group]("p4ce/leaderQPN"),
		rids:        tofino.NewTable[uint16, *scatterEntry]("p4ce/rid"),
	}
}

// ridFor packs a globally unique replication id for a group member.
func ridFor(g tofino.GroupID, ep uint8) uint16 { return uint16(g)<<8 | uint16(ep) }

// Ingress classifies every packet arriving at the switch (§IV-B "Inside
// the switch").
func (dp *Dataplane) Ingress(sw *tofino.Switch, in tofino.PortID, pkt *roce.Packet) tofino.IngressResult {
	if !dp.mBound {
		dp.bindMetrics(sw.Kernel().Metrics())
		dp.otr = sw.Kernel().Tracer()
	}
	// Packets not addressed to the switch are ordinary traffic: forward.
	if pkt.DstIP != sw.IP() {
		out, ok := sw.L3Lookup(pkt.DstIP)
		if !ok {
			return tofino.IngressResult{Verdict: tofino.VerdictDrop}
		}
		return tofino.IngressResult{Verdict: tofino.VerdictForward, OutPort: out}
	}
	// Connection management is not a frequent operation: punt to the
	// control plane (§IV-A "Capturing incoming connections").
	if pkt.DestQP == roce.CMQPN {
		return tofino.IngressResult{Verdict: tofino.VerdictToCPU}
	}
	// Scatter: a write from the leader to its BCast QP.
	if g, ok := dp.bcast.Lookup(pkt.DestQP); ok && g.enabled && pkt.OpCode.IsWrite() {
		dp.mTableHits.Inc()
		return dp.ingressScatter(sw, g, pkt)
	}
	// Gather: an ACK from a replica to the group's Aggr QP.
	if g, ok := dp.aggr.Lookup(pkt.DestQP); ok && g.enabled && pkt.OpCode == roce.OpAcknowledge {
		dp.mTableHits.Inc()
		return dp.ingressGather(sw, g, pkt)
	}
	dp.Stats.UnknownQPDrops++
	dp.mDrops.Inc()
	return tofino.IngressResult{Verdict: tofino.VerdictDrop}
}

func (dp *Dataplane) ingressScatter(sw *tofino.Switch, g *group, pkt *roce.Packet) tofino.IngressResult {
	// The leader authenticates with the virtual R_key it received in the
	// ConnectReply; anything else is not a group write.
	if pkt.OpCode.HasRETH() && pkt.RKey != g.virtualRKey {
		dp.Stats.BadRKeyDrops++
		dp.mDrops.Inc()
		return tofino.IngressResult{Verdict: tofino.VerdictDrop}
	}
	// Prepare aggregation for the answers before the copies leave
	// (§IV-B). The reset is retransmission-aware: wiping the slot on
	// every write would erase the ACKs distinct replicas already sent
	// for this very PSN, and the duplicate ACKs that follow a go-back-N
	// retransmission would then re-count one replica toward a bogus f.
	slot := int(pkt.PSN) % numRecvSlots
	switch g.slotPSN.Read(slot) {
	case pkt.PSN:
		// A go-back-N retransmission of the PSN this slot already
		// tracks: the leader evidently never received the aggregated
		// ACK. Keep the membership bits — those replicas hold the data,
		// their ACKs are history — but clear the forwarded flag so the
		// aggregation re-arms and answers this round too. A leaf also
		// turns eager: its earlier partial (or the root's aggregate) may
		// be what was lost, so every duplicate ACK now refreshes the
		// root's count until a fresh PSN takes the slot.
		dp.Stats.ScatterRetransmits++
		dp.mScatterRetx.Inc()
		v := g.numRecv.Read(slot) &^ gatherForwarded
		if g.leaf {
			v |= gatherEager
		}
		g.numRecv.Write(slot, v)
	default:
		// A new PSN takes the slot over (or the slot is reused 256 PSNs
		// later): start an empty ACK set — and, on a root, empty rack
		// partial counts.
		g.slotPSN.Write(slot, pkt.PSN)
		g.numRecv.Write(slot, 0)
		for r := range g.racks {
			g.rackCnt.Write(slot*len(g.racks)+r, 0)
		}
	}
	g.armSlot(slot, sw.Kernel().Now())
	if !g.leaf {
		// B2: the write entered the scatter pipeline. The leader annotated
		// its PSNs under the BCast QP, which is exactly this packet's
		// DestQP. A leaf skips the mark — the root already recorded it
		// when this same write crossed the leader's ToR.
		dp.otr.Mark(dp.groupComp(g), dp.otr.Lookup(g.shard(), pkt.DestQP, pkt.PSN), otrace.MarkSwitchIngress)
	}
	dp.Stats.Scattered++
	dp.mScattered.Inc()
	dp.mFanout.Observe(int64(len(g.replicas) + len(g.racks)))
	return tofino.IngressResult{Verdict: tofino.VerdictMulticast, Group: g.id}
}

// shard returns the group's consensus shard. Trace annotations are
// keyed per shard (QPNs are only unique per NIC), so every switch-side
// trace lookup qualifies with it. The control plane records it
// explicitly: a leaf group's leader* fields hold the root ToR, whose
// address encodes a rack, not a shard.
func (g *group) shard() int { return g.shardID }

// groupComp resolves the group's trace component lazily (groups are
// installed by the control plane, which has no tracer reference).
func (dp *Dataplane) groupComp(g *group) *otrace.Component {
	if g.oc == nil && dp.otr != nil {
		g.oc = dp.otr.Component(fmt.Sprintf("switch/g%d", g.id), -1)
	}
	return g.oc
}

func (dp *Dataplane) ingressGather(sw *tofino.Switch, g *group, pkt *roce.Packet) tofino.IngressResult {
	rep := g.replicaByIP(pkt.SrcIP)
	if rep == nil {
		// Not a local replica — on a fabric root it may be a leaf ToR
		// reporting its rack's partial count.
		if rk := g.rackByIP(pkt.SrcIP); rk >= 0 {
			return dp.ingressGatherPartial(sw, g, rk, pkt)
		}
		dp.Stats.StaleAckDrops++
		dp.mStaleAcks.Inc()
		return tofino.IngressResult{Verdict: tofino.VerdictDrop}
	}
	// Translate the PSN to what the leader expects (§IV-C).
	rel := roce.PSNDiff(pkt.PSN, rep.PSNBase)
	leaderPSN := roce.PSNAdd(g.leaderPSNBase, rel)

	// NAKs (negative or receiver-not-ready) bypass aggregation: the
	// leader must learn about the misbehaving replica immediately (§III).
	// On a leaf the rewrite targets the root ToR, which relays onward.
	if pkt.Syndrome.Type() != roce.AckPositive {
		dp.Stats.NaksForwarded++
		dp.mNaksFwd.Inc()
		dp.rewriteAckForLeader(g, pkt, leaderPSN, pkt.Syndrome)
		return tofino.IngressResult{Verdict: tofino.VerdictForward, OutPort: g.leaderPort}
	}

	// Remember this replica's latest credit count; the slowest replica
	// must throttle the leader even when its ACK is not the one
	// forwarded (§IV-C).
	g.credits.Write(int(rep.EpID), uint32(pkt.Syndrome.Value()))

	if g.leaf {
		return dp.leafGather(g, rep, leaderPSN, pkt)
	}

	if dp.dropMode == DropInLeaderEgress {
		// Ablation: translate and pass every ACK to the leader's egress,
		// which does the counting — the paper's first implementation.
		// The source address (the replica's identity) survives until the
		// egress aggregation has attributed the ACK; egress masks it.
		pkt.DstIP = g.leaderIP
		pkt.DestQP = g.leaderQPN
		pkt.PSN = leaderPSN
		return tofino.IngressResult{Verdict: tofino.VerdictForward, OutPort: g.leaderPort}
	}

	if !dp.gatherAggregate(g, rep, leaderPSN) {
		// Absorbed here, in the ingress of the replica's own port, so
		// each port's parser carries only its own replica's ACK load.
		return tofino.IngressResult{Verdict: tofino.VerdictDrop}
	}
	dp.Stats.AcksForwarded++
	dp.mAcksFwd.Inc()
	dp.observeGatherLatency(g, leaderPSN, sw.Kernel().Now())
	dp.markGatherFire(sw, g, leaderPSN)
	syn := roce.MakeSyndrome(roce.AckPositive, clampCredit(g.minCredit()))
	dp.rewriteAckForLeader(g, pkt, leaderPSN, syn)
	return tofino.IngressResult{Verdict: tofino.VerdictForward, OutPort: g.leaderPort}
}

// leafGather folds a local replica's ACK into the leaf's slot and, when
// the rack is complete (or the slot is eager after a retransmission),
// forwards ONE partial-count ACK to the root ToR: PSN in leader space,
// the rack's distinct-ACK count in the MSN field, and the rack's
// minimum credit in the syndrome. The MSN field is ideal freight — the
// requester side of the RoCE stack never reads it on ACKs, so the wire
// format is unchanged and single-switch baselines stay bit-identical.
func (dp *Dataplane) leafGather(g *group, rep *replicaEntry, leaderPSN uint32, pkt *roce.Packet) tofino.IngressResult {
	slot := int(leaderPSN) % numRecvSlots
	if g.slotPSN.Read(slot) != leaderPSN {
		dp.Stats.StaleAckDrops++
		dp.mStaleAcks.Inc()
		return tofino.IngressResult{Verdict: tofino.VerdictDrop}
	}
	set := g.numRecv.Read(slot)
	withBit := set | uint32(1)<<rep.EpID
	g.numRecv.Write(slot, withBit)
	if withBit == set {
		dp.mDupAckDrops.Inc()
	}
	fire := set&gatherEager != 0 // eager: every ACK refreshes the root
	if !fire {
		if set&gatherForwarded != 0 || bits.OnesCount32(withBit&^gatherFlagMask) < g.f {
			dp.Stats.AcksAggregated++
			dp.mAcksAbsorbed.Inc()
			return tofino.IngressResult{Verdict: tofino.VerdictDrop}
		}
		g.numRecv.Write(slot, withBit|gatherForwarded)
	}
	dp.Stats.AcksUpForwarded++
	dp.mAcksUp.Inc()
	pkt.MSN = uint32(bits.OnesCount32(withBit &^ gatherFlagMask))
	syn := roce.MakeSyndrome(roce.AckPositive, clampCredit(g.minCredit()))
	dp.rewriteAckForLeader(g, pkt, leaderPSN, syn) // the leaf's "leader" is the root ToR
	return tofino.IngressResult{Verdict: tofino.VerdictForward, OutPort: g.leaderPort}
}

// ingressGatherPartial merges one rack's partial count at the root. The
// count is max-merged per (slot, rack): a duplicate or re-ordered
// partial can only ever confirm what is already known, never
// double-count, so the forwarded aggregate still proves f distinct
// replicas persisted the write — the leaf's bitmap guarantees
// distinctness within the rack, the max-merge guarantees it across
// retransmitted partials.
func (dp *Dataplane) ingressGatherPartial(sw *tofino.Switch, g *group, rk int, pkt *roce.Packet) tofino.IngressResult {
	// A relayed NAK from a leaf: pass it straight to the leader.
	if pkt.Syndrome.Type() != roce.AckPositive {
		dp.Stats.NaksForwarded++
		dp.mNaksFwd.Inc()
		dp.rewriteAckForLeader(g, pkt, pkt.PSN, pkt.Syndrome)
		return tofino.IngressResult{Verdict: tofino.VerdictForward, OutPort: g.leaderPort}
	}
	leaderPSN := pkt.PSN // the leaf already translated into leader space
	slot := int(leaderPSN) % numRecvSlots
	if g.slotPSN.Read(slot) != leaderPSN {
		dp.Stats.StaleAckDrops++
		dp.mStaleAcks.Inc()
		return tofino.IngressResult{Verdict: tofino.VerdictDrop}
	}
	g.rackCred.Write(rk, uint32(pkt.Syndrome.Value()))
	cnt := pkt.MSN
	if cnt > uint32(g.racks[rk].Expected) {
		cnt = uint32(g.racks[rk].Expected)
	}
	idx := slot*len(g.racks) + rk
	if cnt > g.rackCnt.Read(idx) {
		g.rackCnt.Write(idx, cnt)
	}
	dp.Stats.PartialsAggregated++
	dp.mPartials.Inc()
	set := g.numRecv.Read(slot)
	if set&gatherForwarded != 0 || g.gatherTotal(slot, set) < g.f {
		dp.Stats.AcksAggregated++
		dp.mAcksAbsorbed.Inc()
		return tofino.IngressResult{Verdict: tofino.VerdictDrop}
	}
	g.numRecv.Write(slot, set|gatherForwarded)
	dp.Stats.AcksForwarded++
	dp.mAcksFwd.Inc()
	dp.observeGatherLatency(g, leaderPSN, sw.Kernel().Now())
	dp.markGatherFire(sw, g, leaderPSN)
	syn := roce.MakeSyndrome(roce.AckPositive, clampCredit(g.minCredit()))
	dp.rewriteAckForLeader(g, pkt, leaderPSN, syn)
	return tofino.IngressResult{Verdict: tofino.VerdictForward, OutPort: g.leaderPort}
}

// gatherTotal sums a slot's distinct local ACKs and its merged rack
// partial counts — the quorum test a fabric root applies.
func (g *group) gatherTotal(slot int, set uint32) int {
	total := bits.OnesCount32(set &^ gatherFlagMask)
	for r := range g.racks {
		total += int(g.rackCnt.Read(slot*len(g.racks) + r))
	}
	return total
}

// markGatherFire records B4 — the quorum completed and the aggregated
// ACK leaves for the leader — as a span stretching back to when the
// scatter armed the slot (the gather wait itself).
func (dp *Dataplane) markGatherFire(sw *tofino.Switch, g *group, leaderPSN uint32) {
	if dp.otr == nil {
		return
	}
	id := dp.otr.Lookup(g.shard(), g.bcastQP, leaderPSN)
	if id == 0 {
		return
	}
	start := int64(sw.Kernel().Now())
	if slot := int(leaderPSN) % numRecvSlots; slot < len(g.armedAt) {
		start = int64(g.armedAt[slot])
	}
	dp.otr.MarkSpan(dp.groupComp(g), id, otrace.MarkGatherFire, start)
}

// armSlot stamps the start of a gather round for latency measurement.
func (g *group) armSlot(slot int, now sim.Time) {
	if g.armedAt == nil {
		g.armedAt = make([]sim.Time, numRecvSlots)
	}
	g.armedAt[slot] = now
}

// observeGatherLatency records scatter-arm → aggregated-ACK-forward time
// for the slot owning leaderPSN.
func (dp *Dataplane) observeGatherLatency(g *group, leaderPSN uint32, now sim.Time) {
	slot := int(leaderPSN) % numRecvSlots
	if slot < len(g.armedAt) {
		dp.mGatherLatNs.Observe(int64(now - g.armedAt[slot]))
	}
}

// gatherAggregate folds one positive ACK into its PSN's slot and
// reports whether this is the ACK to forward to the leader. It
// maintains the gather invariant:
//
//   - a slot's ACK set only ever contains replicas that acknowledged —
//     and therefore hold — the slot's PSN; duplicates are idempotent
//     (a replica's beyond-f or repeated ACK can never double-count
//     toward the quorum), so a forwarded ACK always proves f *distinct*
//     replicas persisted the write;
//   - the set accumulates across go-back-N rounds (ingressScatter keeps
//     it on retransmission), so ACKs from different transmission rounds
//     combine and recovery needs only the missing replicas to answer;
//   - the forwarded flag makes the f-th crossing exact: the aggregated
//     ACK is emitted once per transmission round, on the first ACK that
//     finds the quorum complete and the flag clear — whether that ACK
//     is the f-th distinct one or the first duplicate after a
//     retransmission re-armed the slot (the lost-forwarded-ACK case) —
//     and every later ACK of the round is absorbed, so the counter can
//     never step past f and leave the leader stalled.
func (dp *Dataplane) gatherAggregate(g *group, rep *replicaEntry, leaderPSN uint32) bool {
	slot := int(leaderPSN) % numRecvSlots
	if g.slotPSN.Read(slot) != leaderPSN {
		// The slot tracks a different PSN: a straggler ACK from a
		// previous window epoch (or from before a switch reboot wiped
		// the slot). It must not pollute the current occupant's count.
		dp.Stats.StaleAckDrops++
		dp.mStaleAcks.Inc()
		return false
	}
	set := g.numRecv.Read(slot)
	withBit := set | uint32(1)<<rep.EpID
	g.numRecv.Write(slot, withBit)
	if withBit == set {
		// The replica's bit was already present: a duplicate ACK (it can
		// never re-count toward the quorum).
		dp.mDupAckDrops.Inc()
	}
	// On a fabric root the quorum test also counts the rack partials
	// merged so far (gatherTotal); a group with no remote rack has none
	// and the total is just the local bitmap's population count.
	if set&gatherForwarded != 0 || g.gatherTotal(slot, withBit) < g.f {
		dp.Stats.AcksAggregated++
		dp.mAcksAbsorbed.Inc()
		return false
	}
	g.numRecv.Write(slot, withBit|gatherForwarded)
	return true
}

// rewriteAckForLeader mutates an ACK in place so the leader sees a
// point-to-point acknowledgment from the switch.
func (dp *Dataplane) rewriteAckForLeader(g *group, pkt *roce.Packet, leaderPSN uint32, syn roce.Syndrome) {
	pkt.SrcIP = pkt.DstIP // the switch's own address
	pkt.DstIP = g.leaderIP
	pkt.DestQP = g.leaderQPN
	pkt.PSN = leaderPSN
	pkt.Syndrome = syn
}

// Egress runs once per outgoing copy. Multicast copies are tailored for
// their replica here (§IV-B); in the egress-drop ablation, ACK counting
// happens here too.
func (dp *Dataplane) Egress(sw *tofino.Switch, out tofino.PortID, rid uint16, pkt *roce.Packet) bool {
	if pkt.OpCode.IsWrite() {
		if ent, ok := dp.rids.Lookup(rid); ok {
			if ent.rep == nil {
				// A fabric root's cross-rack copy: re-address it to the
				// leaf ToR and leave PSN, VA and R_key in leader/virtual
				// space — the leaf's own scatter pipeline translates them
				// per replica. No trace marks either: the leaf's egress
				// records B3 when it tailors the real per-replica copies.
				pkt.SrcIP = sw.IP()
				pkt.DstIP = ent.leafIP
				return true
			}
			// B3: the copy is tailored for its replica. The trace is keyed
			// under the pre-rewrite (BCast QP, leader PSN); re-annotate the
			// rewritten (replica QP, replica PSN) afterwards so the
			// replica's NIC can recover it from the wire.
			id := dp.otr.Lookup(ent.g.shard(), pkt.DestQP, pkt.PSN)
			dp.rewriteWriteForReplica(sw, ent, pkt)
			if id != 0 {
				dp.otr.Mark(dp.groupComp(ent.g), id, otrace.MarkSwitchEgress)
				dp.otr.Annotate(id, pkt.DestQP, pkt.PSN, 1)
			}
			return true
		}
		return true // ordinary forwarded write
	}
	if dp.dropMode == DropInLeaderEgress && pkt.OpCode == roce.OpAcknowledge {
		if g, ok := dp.byLeaderQPN.Lookup(pkt.DestQP); ok && g.enabled {
			if pkt.Syndrome.Type() != roce.AckPositive {
				return true // NAKs always reach the leader
			}
			// Ingress left the replica's source address in place so the
			// aggregation can attribute the ACK; whatever leaves toward
			// the leader must look switch-originated.
			rep := g.replicaByIP(pkt.SrcIP)
			pkt.SrcIP = sw.IP()
			if rep == nil {
				dp.Stats.StaleAckDrops++
				dp.mStaleAcks.Inc()
				return false
			}
			if !dp.gatherAggregate(g, rep, pkt.PSN) {
				return false
			}
			dp.Stats.AcksForwarded++
			dp.mAcksFwd.Inc()
			dp.observeGatherLatency(g, pkt.PSN, sw.Kernel().Now())
			dp.markGatherFire(sw, g, pkt.PSN)
			pkt.Syndrome = roce.MakeSyndrome(roce.AckPositive, clampCredit(g.minCredit()))
			return true
		}
	}
	return true
}

// rewriteWriteForReplica adapts one multicast copy: addresses, queue
// pair, PSN, virtual address and R_key (Fig. 4).
func (dp *Dataplane) rewriteWriteForReplica(sw *tofino.Switch, ent *scatterEntry, pkt *roce.Packet) {
	g, rep := ent.g, ent.rep
	rel := roce.PSNDiff(pkt.PSN, g.leaderPSNBase)
	pkt.SrcIP = sw.IP()
	pkt.DstIP = rep.IP
	pkt.DestQP = rep.QPN
	pkt.PSN = roce.PSNAdd(rep.PSNBase, rel)
	if pkt.OpCode.HasRETH() {
		// The leader writes at offset o of a zero-based virtual region;
		// the replica's log lives at its own address (§IV-B).
		pkt.VA = rep.VA + pkt.VA
		pkt.RKey = rep.RKey
	}
}

// installGroup publishes a fully-built group into the match tables.
func (dp *Dataplane) installGroup(g *group) {
	dp.bcast.Insert(g.bcastQP, g)
	dp.aggr.Insert(g.aggrQP, g)
	dp.byLeaderQPN.Insert(g.leaderQPN, g)
	for i := range g.replicas {
		rep := &g.replicas[i]
		dp.rids.Insert(ridFor(g.id, rep.EpID), &scatterEntry{g: g, rep: rep})
	}
	for i := range g.racks {
		dp.rids.Insert(ridFor(g.id, leafRidBase+uint8(i)), &scatterEntry{g: g, leafIP: g.racks[i].IP})
	}
	g.enabled = true
}

// Reset wipes every match table, the state a power-cycled switch boots
// with (tofino.Switch.Reboot clears the registers and the replication
// engine; the program's own tables are the program's to wipe). The
// control plane rebuilds everything with ReinstallGroups. Counters
// survive as diagnostics.
func (dp *Dataplane) Reset() {
	dp.bcast.Clear()
	dp.aggr.Clear()
	dp.byLeaderQPN.Clear()
	dp.rids.Clear()
}

// removeGroup withdraws a group from the match tables.
func (dp *Dataplane) removeGroup(g *group) {
	g.enabled = false
	dp.bcast.Delete(g.bcastQP)
	dp.aggr.Delete(g.aggrQP)
	dp.byLeaderQPN.Delete(g.leaderQPN)
	for i := range g.replicas {
		dp.rids.Delete(ridFor(g.id, g.replicas[i].EpID))
	}
	for i := range g.racks {
		dp.rids.Delete(ridFor(g.id, leafRidBase+uint8(i)))
	}
}
