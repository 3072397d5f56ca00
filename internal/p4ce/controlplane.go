package p4ce

import (
	"errors"
	"fmt"
	"sort"

	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/tofino"
)

// Control-plane errors.
var (
	// ErrNoRoute reports a replica with no switch port.
	ErrNoRoute = errors.New("p4ce: no route to replica")
	// ErrUnknownGroup reports a management call for a missing group.
	ErrUnknownGroup = errors.New("p4ce: unknown group")
)

// ReconfigDelay is the time to program the data-plane tables and the
// replication engine — the 40 ms the paper measures for configuring a
// communication group (§V-E).
const ReconfigDelay = 40 * sim.Millisecond

// FabricView is what the control plane needs to know about the switch
// topology: which rack serves an address, which switch serves a rack,
// and the spare. internal/fabric's Topology satisfies it — a single
// switch is its one-rack case — and the interface keeps this package
// free of a fabric dependency.
type FabricView interface {
	RackOf(addr simnet.Addr) (int, bool)
	ToR(rack int) *tofino.Switch
	Racks() int
	Standby() *tofino.Switch
}

// setup tracks one in-progress group establishment.
type setup struct {
	g            *group
	leaderCommID uint32
	// entries is a flat view of every replica entry awaiting (or done
	// with) its half of the handshake — across the root group and any
	// leaf groups on a fabric. Pointers are taken only after all the
	// member slices are fully built.
	entries []*replicaEntry
	// outstanding maps the control plane's per-replica comm ids to the
	// index in entries awaiting a ConnectReply.
	outstanding map[uint32]int
	replied     int
	installed   bool
	leaderRep   *roce.CMMessage // stored reply for duplicate-request resend
}

// ControlPlane is the switch-resident software half of P4CE (Python +
// BfRt in the real artifact): it terminates the leader's CM handshake,
// opens the per-replica connections, and programs the data plane.
type ControlPlane struct {
	k *sim.Kernel

	// fabric spreads the control plane across the topology: CM punts
	// arrive from every ToR, groups are homed per switch, and dpOf
	// resolves each switch's program instance.
	fabric FabricView
	dpOf   func(*tofino.Switch) *Dataplane

	nextGroupID tofino.GroupID
	nextQPN     uint32
	nextCommID  uint32

	// setups in progress, keyed by (leader address, leader comm id).
	setups map[setupKey]*setup
	// replicaWait maps control-plane comm ids to their setup.
	replicaWait map[uint32]*setup
	// groups established, by leader address.
	groups map[simnet.Addr]*group
}

type setupKey struct {
	leader simnet.Addr
	commID uint32
}

// NewControlPlane wires one control plane across a switch fabric (one
// management endpoint spanning several switches, as BfRt presents one
// gRPC target per device but one operator drives them all). It
// terminates CM on every ToR and the standby, and homes each group's
// tables and registers on the switch its members sit behind.
func NewControlPlane(view FabricView, dpOf func(*tofino.Switch) *Dataplane) *ControlPlane {
	cp := &ControlPlane{
		k:           view.ToR(0).Kernel(),
		fabric:      view,
		dpOf:        dpOf,
		nextGroupID: 1,
		nextQPN:     0x800,
		nextCommID:  0x5000,
		setups:      make(map[setupKey]*setup),
		replicaWait: make(map[uint32]*setup),
		groups:      make(map[simnet.Addr]*group),
	}
	for r := 0; r < view.Racks(); r++ {
		view.ToR(r).SetCPUHandler(cp.handlePunt)
	}
	if sb := view.Standby(); sb != nil {
		sb.SetCPUHandler(cp.handlePunt)
	}
	return cp
}

// switchFor picks the switch nearest an address: the ToR currently
// serving the address's rack. CM replies must leave from that switch —
// each host fences group handshakes by its own ToR's identity address.
func (cp *ControlPlane) switchFor(addr simnet.Addr) *tofino.Switch {
	if r, ok := cp.fabric.RackOf(addr); ok {
		return cp.fabric.ToR(r)
	}
	return nil
}

// handlePunt receives packets the data plane sent to the CPU.
func (cp *ControlPlane) handlePunt(_ tofino.PortID, pkt *roce.Packet) {
	if pkt.DestQP != roce.CMQPN {
		return
	}
	msg, err := roce.UnmarshalCM(pkt.Payload)
	if err != nil {
		return
	}
	switch msg.Type {
	case roce.CMConnectRequest:
		cp.handleLeaderRequest(msg, pkt.SrcIP)
	case roce.CMConnectReply:
		cp.handleReplicaReply(msg, pkt.SrcIP)
	case roce.CMConnectReject:
		cp.handleReplicaReject(msg)
	case roce.CMReadyToUse:
		// The leader is live; nothing further to do.
	}
}

// sendCM emits a control-plane-crafted CM datagram, injected from the
// switch nearest the destination so the source address matches the
// identity the destination host fences on.
func (cp *ControlPlane) sendCM(dst simnet.Addr, msg *roce.CMMessage) {
	payload, err := msg.MarshalCM()
	if err != nil {
		return
	}
	sw := cp.switchFor(dst)
	if sw == nil {
		return
	}
	sw.InjectFromCP(&roce.Packet{
		SrcIP:   sw.IP(),
		DstIP:   dst,
		SrcPort: roce.UDPPort,
		OpCode:  roce.OpSendOnly,
		DestQP:  roce.CMQPN,
		Payload: payload,
	})
}

// handleLeaderRequest starts (or resumes) a group setup: the request's
// private data carries the replica set (§IV-A).
func (cp *ControlPlane) handleLeaderRequest(msg *roce.CMMessage, from simnet.Addr) {
	key := setupKey{leader: from, commID: msg.LocalCommID}
	if s, dup := cp.setups[key]; dup {
		if s.leaderRep != nil {
			cp.sendCM(from, s.leaderRep) // reply was lost: resend
			return
		}
		// Still waiting on replicas: nudge the ones that have not replied,
		// in a fixed order (map iteration would break seed replay).
		pending := make([]uint32, 0, len(s.outstanding))
		for commID := range s.outstanding {
			pending = append(pending, commID)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
		for _, commID := range pending {
			cp.sendReplicaRequest(s, commID, s.outstanding[commID])
		}
		return
	}
	rs, err := roce.UnmarshalReplicaSet(msg.PrivateData)
	if err != nil || len(rs.Replicas) == 0 || len(rs.Replicas) > maxGatherReplicas {
		cp.rejectLeader(from, msg.LocalCommID, 2)
		return
	}
	s := cp.buildSetup(msg, from, rs)
	if s == nil {
		return // the builder already rejected the leader
	}
	cp.setups[key] = s
	// Fan the handshake out: one ConnectRequest per replica, carrying the
	// leader's identity so the replica can fence by group owner.
	for i := range s.entries {
		commID := cp.allocCommID()
		s.outstanding[commID] = i
		cp.replicaWait[commID] = s
		cp.sendReplicaRequest(s, commID, i)
	}
}

// quorumOf resolves the request's explicit ACK threshold, defaulting to
// a majority of the requested membership.
func quorumOf(rs *roce.ReplicaSet) int {
	if f := int(rs.AcksRequired); f != 0 {
		return f
	}
	return (len(rs.Replicas) + 1) / 2
}

// shardOf recovers a host's consensus shard from its address: the
// third octet is the shard's /24 block.
func shardOf(addr simnet.Addr) int {
	_, _, s, _ := addr.Octets()
	return int(s)
}

// buildSetup creates a group family: a root group on the leader's ToR
// holding the leader-rack replicas plus one rackEntry per remote rack,
// and a leaf group on each remote rack's ToR holding that rack's
// replicas. When every replica shares the leader's rack — always, on a
// single switch — the root is the whole group. The root and every leaf
// share the BCast/Aggr queue-pair numbers and the virtual R_key —
// tables are per switch, so the values never collide — which keeps the
// leader's and the replicas' view of the group the same whatever the
// racks.
func (cp *ControlPlane) buildSetup(msg *roce.CMMessage, from simnet.Addr, rs *roce.ReplicaSet) *setup {
	leaderRack, ok := cp.fabric.RackOf(from)
	if !ok {
		cp.rejectLeader(from, msg.LocalCommID, 3)
		return nil
	}
	rootSw := cp.fabric.ToR(leaderRack)
	leaderPort, ok := rootSw.L3Lookup(from)
	if !ok {
		cp.rejectLeader(from, msg.LocalCommID, 3)
		return nil
	}
	gid := cp.nextGroupID
	cp.nextGroupID++
	g := &group{
		id:            gid,
		bcastQP:       cp.allocQPN(),
		aggrQP:        cp.allocQPN(),
		leaderIP:      from,
		leaderPort:    leaderPort,
		leaderQPN:     msg.QPN,
		leaderPSNBase: msg.StartPSN,
		virtualRKey:   cp.k.Rand().Uint32(),
		f:             quorumOf(rs),
		sw:            rootSw,
		dp:            cp.dpOf(rootSw),
		homeRack:      leaderRack,
		shardID:       shardOf(from),
	}
	// ref locates one canonical replica entry; pointers into the member
	// slices are taken only after every append is done.
	type ref struct {
		g   *group
		idx int
	}
	var refs []ref
	leafByRack := make(map[int]*group)
	leafFor := func(r int) *group {
		if lg, ok := leafByRack[r]; ok {
			return lg
		}
		leafSw := cp.fabric.ToR(r)
		rootPort, _ := leafSw.L3Lookup(rootSw.IP())
		lg := &group{
			id:      gid,
			bcastQP: g.bcastQP,
			aggrQP:  g.aggrQP,
			// The leaf's "leader" is the root ToR: partial-count ACKs
			// (and relayed NAKs) are addressed there, in leader PSN space.
			leaderIP:      rootSw.IP(),
			leaderPort:    rootPort,
			leaderQPN:     g.aggrQP,
			leaderPSNBase: msg.StartPSN,
			virtualRKey:   g.virtualRKey,
			sw:            leafSw,
			dp:            cp.dpOf(leafSw),
			homeRack:      r,
			shardID:       g.shardID,
			leaf:          true,
		}
		leafByRack[r] = lg
		g.leaves = append(g.leaves, lg)
		return lg
	}
	for _, rip := range rs.Replicas {
		r, ok := cp.fabric.RackOf(rip)
		if !ok {
			cp.rejectLeader(from, msg.LocalCommID, 3)
			return nil
		}
		psn := cp.k.Rand().Uint32() & roce.PSNMask
		owner := g
		if r != leaderRack {
			owner = leafFor(r)
		}
		port, ok := owner.sw.L3Lookup(rip)
		if !ok {
			cp.rejectLeader(from, msg.LocalCommID, 3)
			return nil
		}
		owner.replicas = append(owner.replicas, replicaEntry{
			EpID:    uint8(len(owner.replicas)),
			Port:    port,
			IP:      rip,
			PSNBase: psn,
		})
		refs = append(refs, ref{owner, len(owner.replicas) - 1})
	}
	for _, lg := range g.leaves {
		lg.f = len(lg.replicas) // rack-complete, not a quorum
		port, ok := rootSw.L3Lookup(lg.sw.IP())
		if !ok {
			cp.rejectLeader(from, msg.LocalCommID, 3)
			return nil
		}
		g.racks = append(g.racks, rackEntry{IP: lg.sw.IP(), Expected: len(lg.replicas), Port: port})
	}
	cp.allocGroupRegisters(g)
	for _, lg := range g.leaves {
		cp.allocGroupRegisters(lg)
	}
	s := &setup{g: g, leaderCommID: msg.LocalCommID, outstanding: make(map[uint32]int)}
	for _, rf := range refs {
		s.entries = append(s.entries, &rf.g.replicas[rf.idx])
	}
	return s
}

// allocGroupRegisters claims a group's stateful register arrays on its
// home switch. Register names are scoped per switch, so a root and its
// leaves can share a group id without colliding. The credits array is
// indexed by EpID, and RemoveReplica keeps the survivors' EpIDs, so it
// spans the highest EpID, not the member count.
func (cp *ControlPlane) allocGroupRegisters(g *group) {
	n := 1 // a root whose rack holds only the leader still allocates
	for _, rep := range g.replicas {
		n = max(n, int(rep.EpID)+1)
	}
	g.numRecv = g.sw.AllocRegister(fmt.Sprintf("p4ce/g%d/numRecv", g.id), numRecvSlots)
	g.slotPSN = g.sw.AllocRegister(fmt.Sprintf("p4ce/g%d/slotPSN", g.id), numRecvSlots)
	g.credits = g.sw.AllocRegister(fmt.Sprintf("p4ce/g%d/credits", g.id), n)
	if len(g.racks) > 0 {
		g.rackCnt = g.sw.AllocRegister(fmt.Sprintf("p4ce/g%d/rackCnt", g.id), numRecvSlots*len(g.racks))
		g.rackCred = g.sw.AllocRegister(fmt.Sprintf("p4ce/g%d/rackCred", g.id), len(g.racks))
	}
}

// sendReplicaRequest emits the switch→replica ConnectRequest. The
// replica will address its ACKs to the group's Aggr QP.
func (cp *ControlPlane) sendReplicaRequest(s *setup, commID uint32, idx int) {
	rep := s.entries[idx]
	owner := roce.ReplicaSet{Replicas: []simnet.Addr{s.g.leaderIP}}
	priv, err := owner.MarshalReplicaSet()
	if err != nil {
		return
	}
	cp.sendCM(rep.IP, &roce.CMMessage{
		Type:        roce.CMConnectRequest,
		LocalCommID: commID,
		QPN:         s.g.aggrQP,
		StartPSN:    rep.PSNBase,
		PrivateData: priv,
	})
}

// handleReplicaReply records one replica's half of the handshake; when
// the last one arrives, the data plane is programmed and — after the
// reconfiguration delay — the leader gets its single aggregated
// ConnectReply (§IV-A "Setting up the connection").
func (cp *ControlPlane) handleReplicaReply(msg *roce.CMMessage, from simnet.Addr) {
	s, ok := cp.replicaWait[msg.RemoteCommID]
	if !ok {
		return
	}
	idx, pending := s.outstanding[msg.RemoteCommID]
	if !pending {
		return
	}
	delete(s.outstanding, msg.RemoteCommID)
	delete(cp.replicaWait, msg.RemoteCommID)
	rep := s.entries[idx]
	if rep.IP != from {
		return
	}
	rep.QPN = msg.QPN
	rep.VA = msg.VA
	rep.RKey = msg.RKey
	rep.BufLen = msg.BufLen
	s.replied++
	cp.sendCM(from, &roce.CMMessage{
		Type:         roce.CMReadyToUse,
		LocalCommID:  msg.RemoteCommID,
		RemoteCommID: msg.LocalCommID,
	})
	if s.replied == len(s.entries) {
		cp.finishSetup(s)
	}
}

// handleReplicaReject aborts the setup and tells the leader (§IV-A: "we
// follow the logic of the Mu protocol").
func (cp *ControlPlane) handleReplicaReject(msg *roce.CMMessage) {
	s, ok := cp.replicaWait[msg.RemoteCommID]
	if !ok {
		return
	}
	for commID := range s.outstanding {
		delete(cp.replicaWait, commID)
	}
	delete(cp.setups, setupKey{leader: s.g.leaderIP, commID: s.leaderCommID})
	if !s.installed {
		cp.freeGroupRegisters(s.g)
		for _, lg := range s.g.leaves {
			cp.freeGroupRegisters(lg)
		}
	}
	cp.rejectLeader(s.g.leaderIP, s.leaderCommID, msg.RejectReason)
}

// finishSetup programs the data plane and answers the leader. The
// reconfiguration delay covers BfRt table and replication-engine
// programming — 40 ms on the testbed.
func (cp *ControlPlane) finishSetup(s *setup) {
	cp.k.Schedule(ReconfigDelay, func() {
		g := s.g
		minBuf := uint32(1<<32 - 1)
		for _, rep := range s.entries {
			if rep.BufLen < minBuf {
				minBuf = rep.BufLen
			}
		}
		// A repeated handshake (leader re-probing through churn) can
		// finish a second setup for a leader that already has a group.
		// The old group must stay programmed: the leader may still be
		// driving the QPN from whichever reply it accepted first, and
		// tearing the old group down here would blackhole its writes as
		// unknown-QP drops. Group identifiers are never reused, so the
		// register names cannot collide; the superseded group's state is
		// reclaimed when the leader's group is explicitly destroyed.
		cp.programGroup(g)
		for _, lg := range g.leaves {
			cp.programGroup(lg)
		}
		s.installed = true
		cp.groups[g.leaderIP] = g
		s.leaderRep = &roce.CMMessage{
			Type:         roce.CMConnectReply,
			LocalCommID:  cp.allocCommID(),
			RemoteCommID: s.leaderCommID,
			QPN:          g.bcastQP,
			StartPSN:     g.leaderPSNBase,
			VA:           0, // the leader writes into a zero-based virtual region
			RKey:         g.virtualRKey,
			BufLen:       minBuf,
		}
		cp.sendCM(g.leaderIP, s.leaderRep)
	})
}

// programGroup writes one group's full data-plane state — gather
// registers, replication-engine membership, match tables — on the
// group's home switch.
func (cp *ControlPlane) programGroup(g *group) {
	g.resetGatherState()
	cp.reprogramMulticast(g)
	g.dp.installGroup(g)
}

// reprogramMulticast rebuilds a group's replication-engine membership:
// its replicas plus, on a fabric root, one cross-rack copy per leaf.
func (cp *ControlPlane) reprogramMulticast(g *group) {
	members := make([]tofino.GroupMember, 0, len(g.replicas)+len(g.racks))
	for i := range g.replicas {
		rep := &g.replicas[i]
		members = append(members, tofino.GroupMember{Port: rep.Port, RID: ridFor(g.id, rep.EpID)})
	}
	for i := range g.racks {
		members = append(members, tofino.GroupMember{Port: g.racks[i].Port, RID: ridFor(g.id, leafRidBase+uint8(i))})
	}
	g.sw.SetMulticastGroup(g.id, members)
}

// ReinstallGroups re-programs the data plane from the control plane's
// shadow state after a switch reboot wiped the replication engine, the
// registers and the match tables. One ReconfigDelay covers the whole
// batch (BfRt batches the writes), after which in-flight leader
// retransmissions find the tables back and recover without any
// endpoint noticing — provided their retry budget outlives the outage;
// otherwise the leaders fall back to direct replication and re-dial.
// done, if non-nil, fires when the data plane is consistent again.
func (cp *ControlPlane) ReinstallGroups(done func()) {
	cp.k.Schedule(ReconfigDelay, func() {
		for _, leader := range cp.sortedGroupLeaders() {
			g := cp.groups[leader]
			cp.programGroup(g)
			for _, lg := range g.leaves {
				cp.programGroup(lg)
			}
		}
		if done != nil {
			done()
		}
	})
}

// sortedGroupLeaders returns the group keys in a fixed order: map
// iteration order is randomized per run, and re-programming emits
// events whose order must replay identically under one seed.
func (cp *ControlPlane) sortedGroupLeaders() []simnet.Addr {
	leaders := make([]simnet.Addr, 0, len(cp.groups))
	for l := range cp.groups {
		leaders = append(leaders, l)
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
	return leaders
}

func (cp *ControlPlane) rejectLeader(leader simnet.Addr, commID uint32, reason uint8) {
	cp.sendCM(leader, &roce.CMMessage{
		Type:         roce.CMConnectReject,
		RemoteCommID: commID,
		RejectReason: reason,
	})
}

// RemoveReplica excludes a crashed replica from the leader's group. The
// ACK threshold f is left untouched: it is the majority of the full
// cluster, so shrinking the live membership must never shrink the
// quorum. The update takes effect after the reconfiguration delay (the
// 40 ms Table IV charges to P4CE), and done is invoked once the data
// plane is consistent again.
func (cp *ControlPlane) RemoveReplica(leader, replica simnet.Addr, done func(error)) {
	g, ok := cp.groups[leader]
	if !ok {
		if done != nil {
			done(ErrUnknownGroup)
		}
		return
	}
	cp.k.Schedule(ReconfigDelay, func() {
		if !cp.removeMember(g, replica) {
			// Not in the root: on a fabric it may be racked behind a
			// leaf. Shrinking the rack also shrinks the leaf's
			// rack-complete threshold and the root's expected count —
			// but never the root's quorum f.
			for i, lg := range g.leaves {
				if !cp.removeMember(lg, replica) {
					continue
				}
				lg.f = len(lg.replicas)
				if i < len(g.racks) {
					g.racks[i].Expected = len(lg.replicas)
				}
				break
			}
		}
		if done != nil {
			done(nil)
		}
	})
}

// removeMember drops a replica from one group's membership and
// reprograms its multicast fan-out; reports whether it was a member.
func (cp *ControlPlane) removeMember(g *group, replica simnet.Addr) bool {
	found := false
	kept := g.replicas[:0]
	for _, rep := range g.replicas {
		if rep.IP == replica {
			g.dp.rids.Delete(ridFor(g.id, rep.EpID))
			found = true
			continue
		}
		kept = append(kept, rep)
	}
	g.replicas = kept
	cp.reprogramMulticast(g)
	return found
}

// DestroyGroup withdraws a leader's group (view change: the old leader's
// state is eventually garbage collected; its broadcasts already fail at
// the replicas).
func (cp *ControlPlane) DestroyGroup(leader simnet.Addr, done func(error)) {
	g, ok := cp.groups[leader]
	if !ok {
		if done != nil {
			done(ErrUnknownGroup)
		}
		return
	}
	cp.k.Schedule(ReconfigDelay, func() {
		// Guard against the leader having re-established a fresh group
		// while this teardown was queued: only remove what we looked up.
		if cur, ok := cp.groups[leader]; ok && cur == g {
			delete(cp.groups, leader)
		}
		for _, tg := range append([]*group{g}, g.leaves...) {
			tg.dp.removeGroup(tg)
			tg.sw.DeleteMulticastGroup(tg.id)
			cp.freeGroupRegisters(tg)
		}
		if done != nil {
			done(nil)
		}
	})
}

// freeGroupRegisters releases a group's stateful register arrays on its
// home switch so a later group under the same identifier can allocate
// them again. Every teardown path (destroy, setup reject, replacement)
// funnels here — register isolation across group reboots depends on it.
// FreeRegister ignores names never allocated (the rack arrays of a
// group with no remote rack).
func (cp *ControlPlane) freeGroupRegisters(g *group) {
	g.sw.FreeRegister(fmt.Sprintf("p4ce/g%d/numRecv", g.id))
	g.sw.FreeRegister(fmt.Sprintf("p4ce/g%d/slotPSN", g.id))
	g.sw.FreeRegister(fmt.Sprintf("p4ce/g%d/credits", g.id))
	g.sw.FreeRegister(fmt.Sprintf("p4ce/g%d/rackCnt", g.id))
	g.sw.FreeRegister(fmt.Sprintf("p4ce/g%d/rackCred", g.id))
}

// RehomeRack re-creates every group homed on a rack's dead ToR onto
// the switch now serving that rack — the standby, after the fabric's
// AdoptRack — with fresh registers, re-resolved ports and reprogrammed
// tables. Gather state restarts empty, which is safe by construction:
// the aggregation is loss-tolerant, so the leader's go-back-N
// retransmissions re-arm the slots and the replicas' (duplicate) ACKs
// re-fill them. The caller schedules this behind the ReconfigDelay, as
// with every other control-plane reprogramming.
func (cp *ControlPlane) RehomeRack(rack int) {
	newSw := cp.fabric.ToR(rack)
	for _, leader := range cp.sortedGroupLeaders() {
		root := cp.groups[leader]
		for _, g := range append([]*group{root}, root.leaves...) {
			if g.homeRack != rack || g.sw == newSw {
				continue
			}
			g.sw = newSw
			g.dp = cp.dpOf(newSw)
			cp.allocGroupRegisters(g)
			cp.resolveGroupPorts(g)
			cp.programGroup(g)
		}
	}
}

// ReresolveFabricPorts refreshes every group's ports from its home
// switch's route table after the fabric rerouted (around a dead spine)
// and reprograms the multicast memberships, without touching register
// state — in-flight gather rounds survive a spine loss.
func (cp *ControlPlane) ReresolveFabricPorts() {
	for _, leader := range cp.sortedGroupLeaders() {
		root := cp.groups[leader]
		for _, g := range append([]*group{root}, root.leaves...) {
			cp.resolveGroupPorts(g)
			cp.reprogramMulticast(g)
		}
	}
}

// resolveGroupPorts re-reads every port a group references from its
// home switch's route table.
func (cp *ControlPlane) resolveGroupPorts(g *group) {
	if p, ok := g.sw.L3Lookup(g.leaderIP); ok {
		g.leaderPort = p
	}
	for i := range g.replicas {
		if p, ok := g.sw.L3Lookup(g.replicas[i].IP); ok {
			g.replicas[i].Port = p
		}
	}
	for i := range g.racks {
		if p, ok := g.sw.L3Lookup(g.racks[i].IP); ok {
			g.racks[i].Port = p
		}
	}
}

// GroupInfo describes an installed group (diagnostics and tests).
type GroupInfo struct {
	Leader   simnet.Addr
	BCastQP  uint32
	AggrQP   uint32
	F        int
	Replicas []simnet.Addr
	// Racks lists the leaf ToR identity addresses aggregating for this
	// group's remote racks (empty when every replica shares the leader's
	// rack).
	Racks []simnet.Addr
}

// Groups lists installed groups, ordered by leader address.
func (cp *ControlPlane) Groups() []GroupInfo {
	out := make([]GroupInfo, 0, len(cp.groups))
	for _, leader := range cp.sortedGroupLeaders() {
		g := cp.groups[leader]
		info := GroupInfo{
			Leader:  g.leaderIP,
			BCastQP: g.bcastQP,
			AggrQP:  g.aggrQP,
			F:       g.f,
		}
		for _, rep := range g.replicas {
			info.Replicas = append(info.Replicas, rep.IP)
		}
		for _, lg := range g.leaves {
			for _, rep := range lg.replicas {
				info.Replicas = append(info.Replicas, rep.IP)
			}
		}
		for _, rk := range g.racks {
			info.Racks = append(info.Racks, rk.IP)
		}
		out = append(out, info)
	}
	return out
}

func (cp *ControlPlane) allocQPN() uint32 {
	q := cp.nextQPN
	cp.nextQPN++
	return q
}

func (cp *ControlPlane) allocCommID() uint32 {
	c := cp.nextCommID
	cp.nextCommID++
	return c
}
