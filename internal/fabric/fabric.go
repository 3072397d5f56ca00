package fabric

import (
	"fmt"

	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/tofino"
)

// Address plan: hosts keep their 10.0.<shard>.<i+1> addresses; the
// switch tier gets its own blocks so a route table read says at a
// glance which tier it crosses.
const (
	torOctet     = 254 // ToR r       → 10.254.<r>.254
	spineOctet   = 253 // spine m     → 10.253.<m>.254
	standbyOctet = 252 // the standby → 10.252.0.254 (until it adopts)
	backupOctet  = 251 // the backup  → 10.251.0.254
)

// RouteReconvergence is how long the network takes to move a dead
// ToR's hosts onto the plain backup switch: routing reconverges on the
// alternative route before their traffic flows over it (§III-A; with
// detection it makes Table IV's ≈60 ms switch crash).
const RouteReconvergence = 55 * sim.Millisecond

// ToRIP returns rack r's ToR identity address. The address names the
// *role*, not the ASIC: when the standby adopts rack r it takes this
// address over, and hosts keep dialing it unchanged.
func ToRIP(r int) simnet.Addr { return simnet.AddrFrom(10, torOctet, byte(r), 254) }

// SpineIP returns spine m's management address.
func SpineIP(m int) simnet.Addr { return simnet.AddrFrom(10, spineOctet, byte(m), 254) }

// StandbyIP returns the standby switch's address before adoption.
func StandbyIP() simnet.Addr { return simnet.AddrFrom(10, standbyOctet, 0, 254) }

// BackupIP returns the plain backup switch's address.
func BackupIP() simnet.Addr { return simnet.AddrFrom(10, backupOctet, 0, 254) }

// Spec sizes a leaf-spine fabric.
type Spec struct {
	// Racks is the number of ToR (leaf) switches; replicas are assigned
	// to racks by the topology owner. Must be >= 1.
	Racks int
	// Spines is the spine-switch count; every ToR uplinks to every
	// spine (2 gives the fabric a spine to lose). Zero is the one-rack,
	// spine-less fabric — a single ToR with every host behind it, the
	// paper's testbed — and needs Racks == 1 and no Standby.
	Spines int
	// Standby cables one spare switch to every spine and (dual-homed) to
	// every host, ready to adopt a dead ToR's identity.
	Standby bool
	// Backup cables one plain L3 switch to every host: the paper's
	// "alternative network route" (§III-A). It runs no consensus
	// program and routes only to its own hosts, so it belongs to the
	// one-rack, spine-less fabric alone.
	Backup bool
}

// InterLink is one inter-switch cable, exposed so fault injectors can
// cut or degrade the fabric core.
type InterLink struct {
	Name string
	// A is the ToR/standby side, B the spine side.
	A, B *simnet.Port
	// Rack is the ToR's rack (-1 for the standby's uplinks).
	Rack  int
	Spine int
}

// Topology is a built leaf-spine fabric: N ToR switches and M spines,
// fully meshed, plus an optional spare switch (a standby, or on the
// one-rack fabric a plain backup). It owns the route tables —
// exact-match L3 entries on every switch — and the two reconfiguration
// moves the control plane drives: rerouting around a dead spine and
// having the standby adopt a dead ToR's rack.
type Topology struct {
	k    *sim.Kernel
	spec Spec

	tors    []*tofino.Switch
	spines  []*tofino.Switch
	standby *tofino.Switch
	backup  *tofino.Switch
	active  []*tofino.Switch // per rack: the switch currently serving it

	// uplink[sw][m] is sw's port toward spine m (ToRs and the standby).
	uplink map[*tofino.Switch][]tofino.PortID
	// spineDown[m][r] is spine m's port toward rack r's ToR;
	// spineStandby[m] its port toward the standby.
	spineDown    [][]tofino.PortID
	spineStandby []tofino.PortID

	hosts     map[simnet.Addr]int // host address → rack
	hostOrder []simnet.Addr
	spineLive []bool
	viaSpine  []int // rack r is reached across spine viaSpine[r]
	adopted   int   // rack the standby serves, or -1

	links []InterLink
}

// Build constructs the switches and the full ToR×spine mesh on kernel k
// (the fabric scheduling domain). Hosts attach afterwards through
// AttachHost/AttachSpare; every attach updates the route tables
// fabric-wide.
func Build(k *sim.Kernel, spec Spec, swCfg tofino.Config) *Topology {
	if spec.Racks < 1 || spec.Spines < 0 ||
		spec.Spines == 0 && (spec.Racks > 1 || spec.Standby) ||
		spec.Backup && spec.Spines > 0 {
		panic("fabric: Spec needs a rack, a spine when several racks or a standby share the fabric, and none for a backup")
	}
	t := &Topology{
		k:         k,
		spec:      spec,
		uplink:    make(map[*tofino.Switch][]tofino.PortID),
		hosts:     make(map[simnet.Addr]int),
		spineLive: make([]bool, spec.Spines),
		viaSpine:  make([]int, spec.Racks),
		adopted:   -1,
	}
	for m := 0; m < spec.Spines; m++ {
		sp := tofino.New(k, fmt.Sprintf("spine%d", m), SpineIP(m), swCfg)
		sp.SetProgram(&tofino.L3Program{})
		t.spines = append(t.spines, sp)
		t.spineLive[m] = true
		t.spineDown = append(t.spineDown, make([]tofino.PortID, spec.Racks))
	}
	for r := 0; r < spec.Racks; r++ {
		tor := tofino.New(k, fmt.Sprintf("tor%d", r), ToRIP(r), swCfg)
		t.tors = append(t.tors, tor)
		t.active = append(t.active, tor)
		if spec.Spines > 0 {
			t.viaSpine[r] = r % spec.Spines
		}
		for m := 0; m < spec.Spines; m++ {
			t.cableToSpine(tor, r, m)
		}
	}
	if spec.Standby {
		t.standby = tofino.New(k, "standby", StandbyIP(), swCfg)
		t.spineStandby = make([]tofino.PortID, spec.Spines)
		for m := 0; m < spec.Spines; m++ {
			t.cableToSpine(t.standby, -1, m)
		}
	}
	if spec.Backup {
		t.backup = tofino.New(k, "backup", BackupIP(), swCfg)
		t.backup.SetProgram(&tofino.L3Program{})
	}
	// Inter-ToR routes: every switch in the leaf tier learns how to
	// reach every rack's identity address across the chosen spine.
	for r := 0; r < spec.Racks; r++ {
		t.bindRackRoute(ToRIP(r), r)
	}
	return t
}

// cableToSpine wires one uplink (rack == -1 for the standby).
func (t *Topology) cableToSpine(sw *tofino.Switch, rack, m int) {
	up, upPort := sw.AddPort(fmt.Sprintf("up%d", m))
	name := fmt.Sprintf("tor%d-spine%d", rack, m)
	if rack < 0 {
		name = fmt.Sprintf("standby-spine%d", m)
	}
	down, downPort := t.spines[m].AddPort(name)
	simnet.Connect(upPort, downPort, simnet.DefaultLinkConfig())
	t.uplink[sw] = append(t.uplink[sw], up)
	if rack < 0 {
		t.spineStandby[m] = down
	} else {
		t.spineDown[m][rack] = down
	}
	t.links = append(t.links, InterLink{Name: name, A: upPort, B: downPort, Rack: rack, Spine: m})
}

// LeafTier returns every switch holding leaf-side route tables — the
// ToR built for each rack, then the standby — in a fixed order. These
// are the switches that run a consensus program.
func (t *Topology) LeafTier() []*tofino.Switch {
	sws := append([]*tofino.Switch(nil), t.tors...)
	if t.standby != nil {
		sws = append(sws, t.standby)
	}
	return sws
}

// bindRackRoute teaches the whole fabric how to reach addr, which lives
// in rack r: spines route it down to the rack's serving switch, and
// every other leaf-tier switch routes it up across the rack's spine.
// Local bindings (the serving switch's own access port, the standby's
// dual-homed host ports) are installed separately and take precedence:
// the first are bound after these, and a rebind never overwrites the
// second.
func (t *Topology) bindRackRoute(addr simnet.Addr, r int) {
	for m, sp := range t.spines {
		if t.adopted == r {
			sp.BindAddr(addr, t.spineStandby[m])
		} else {
			sp.BindAddr(addr, t.spineDown[m][r])
		}
	}
	for _, sw := range t.LeafTier() {
		if sw == t.active[r] || sw == t.standby && t.onHostLeg(sw, addr) {
			continue // the serving switch, or the host's own leg, delivers locally
		}
		sw.BindAddr(addr, t.uplink[sw][t.viaSpine[r]])
	}
}

// onHostLeg reports whether sw already routes addr out of an access
// port. Build cables every uplink before any host attaches, so a
// switch's uplinks are its lowest port ids.
func (t *Topology) onHostLeg(sw *tofino.Switch, addr simnet.Addr) bool {
	p, ok := sw.L3Lookup(addr)
	return ok && int(p) >= len(t.uplink[sw])
}

// AttachHost cables a host's primary access port into rack r: a new
// access port on the rack's ToR, plus fabric-wide routes for the host's
// address. Returns nothing; the host port's peer is the ToR port.
func (t *Topology) AttachHost(r int, addr simnet.Addr, hostPort *simnet.Port) {
	tor := t.tors[r]
	pid, swPort := tor.AddPort(fmt.Sprintf("host-%v", addr))
	simnet.Connect(hostPort, swPort, simnet.DefaultLinkConfig())
	t.hosts[addr] = r
	t.hostOrder = append(t.hostOrder, addr)
	t.bindRackRoute(addr, r)
	tor.BindAddr(addr, pid) // local binding wins over the uplink route
}

// AttachSpare cables a host's spare leg — a second access port, built
// on kernel k (the host's domain) — to the fabric's spare switch: the
// standby, or the plain backup. It returns the leg, or nil when the
// fabric has no spare. Call after AttachHost: the local binding must
// overwrite the standby's via-spine route for this host.
func (t *Topology) AttachSpare(addr simnet.Addr, k *sim.Kernel) *simnet.Port {
	sw, suffix := t.standby, "-sb"
	if t.backup != nil {
		sw, suffix = t.backup, "-bk"
	}
	if sw == nil {
		return nil
	}
	hostPort := simnet.NewPort(k, addr.String()+suffix, nil)
	pid, swPort := sw.AddPort(fmt.Sprintf("host-%v", addr))
	simnet.Connect(hostPort, swPort, simnet.DefaultLinkConfig())
	sw.BindAddr(addr, pid)
	return hostPort
}

// RackOf returns the rack serving a host address.
func (t *Topology) RackOf(addr simnet.Addr) (int, bool) {
	r, ok := t.hosts[addr]
	return r, ok
}

// ToR returns the switch currently serving rack r (the standby, after
// it adopted the rack).
func (t *Topology) ToR(r int) *tofino.Switch { return t.active[r] }

// Racks returns the rack count.
func (t *Topology) Racks() int { return t.spec.Racks }

// SpineCount returns the spine count.
func (t *Topology) SpineCount() int { return t.spec.Spines }

// Spine returns spine m.
func (t *Topology) Spine(m int) *tofino.Switch { return t.spines[m] }

// Standby returns the standby switch, or nil.
func (t *Topology) Standby() *tofino.Switch { return t.standby }

// Backup returns the plain backup switch, or nil.
func (t *Topology) Backup() *tofino.Switch { return t.backup }

// AdoptedRack returns the rack the standby serves, or -1.
func (t *Topology) AdoptedRack() int { return t.adopted }

// OriginalToR returns the ToR built for rack r, even after adoption.
func (t *Topology) OriginalToR(r int) *tofino.Switch { return t.tors[r] }

// InterLinks lists the inter-switch cables (fault-injection targets).
func (t *Topology) InterLinks() []InterLink { return t.links }

// Switches returns every switch in the fabric — ToRs, spines, then the
// spare — in a fixed order (diagnostics, stats aggregation).
func (t *Topology) Switches() []*tofino.Switch {
	sws := append([]*tofino.Switch(nil), t.tors...)
	sws = append(sws, t.spines...)
	for _, sw := range []*tofino.Switch{t.standby, t.backup} {
		if sw != nil {
			sws = append(sws, sw)
		}
	}
	return sws
}

// LiveSpine returns the lowest-index live spine, or -1 when the whole
// spine tier is dead.
func (t *Topology) LiveSpine() int {
	for m, live := range t.spineLive {
		if live {
			return m
		}
	}
	return -1
}

// RerouteAroundSpine marks spine m dead and rebinds every route that
// crossed it onto the lowest-index surviving spine. Traffic lost while
// the spine was down is the transport layer's to retransmit; there is
// no automatic failback.
func (t *Topology) RerouteAroundSpine(m int) {
	if m < 0 || m >= len(t.spineLive) || !t.spineLive[m] {
		return
	}
	t.spineLive[m] = false
	next := t.LiveSpine()
	if next < 0 {
		return // nothing to reroute onto
	}
	for r := 0; r < t.spec.Racks; r++ {
		if t.viaSpine[r] != m {
			continue
		}
		t.viaSpine[r] = next
		t.bindRackRoute(ToRIP(r), r)
		for _, addr := range t.hostOrder {
			if t.hosts[addr] == r {
				t.bindRackRoute(addr, r)
			}
		}
	}
}

// AdoptRack has the standby switch take over rack r after its ToR died:
// a VRRP-style identity takeover (the standby assumes the rack's ToR
// address) plus a fabric-wide route update pointing the rack's
// addresses at the standby's spine downlinks. The caller reprograms the
// consensus dataplane and flips the rack's host NICs onto their standby
// legs; the dead ToR stays dead (adoption is one-way, and there is only
// one standby).
func (t *Topology) AdoptRack(r int) bool {
	if t.standby == nil || t.adopted >= 0 || r < 0 || r >= t.spec.Racks {
		return false
	}
	t.adopted = r
	t.active[r] = t.standby
	t.standby.SetIP(ToRIP(r))
	t.bindRackRoute(ToRIP(r), r)
	for _, addr := range t.hostOrder {
		if t.hosts[addr] == r {
			t.bindRackRoute(addr, r)
		}
	}
	return true
}
