package fabric

import (
	"testing"

	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/tofino"
)

// host returns the address of machine i (shard 0).
func host(i int) simnet.Addr { return simnet.AddrFrom(10, 0, 0, byte(i+1)) }

// route returns sw's L3 port for addr, failing the test when it has none.
func route(t *testing.T, sw *tofino.Switch, addr simnet.Addr) tofino.PortID {
	t.Helper()
	p, ok := sw.L3Lookup(addr)
	if !ok {
		t.Fatalf("%s has no route to %v", sw.Name(), addr)
	}
	return p
}

// attach cables n hosts round-robin onto the racks (and, when the
// fabric has one, onto the spare switch) and returns their addresses.
func attach(k *sim.Kernel, f *Topology, n int) []simnet.Addr {
	var addrs []simnet.Addr
	for i := 0; i < n; i++ {
		a := host(i)
		f.AttachHost(i%f.Racks(), a, simnet.NewPort(k, a.String(), nil))
		f.AttachSpare(a, k)
		addrs = append(addrs, a)
	}
	return addrs
}

// TestOneRackNoSpine checks the degenerate fabric of the single-switch
// testbed: one ToR, no inter-switch cable, every route local, and no
// reconfiguration move with anything to do.
func TestOneRackNoSpine(t *testing.T) {
	k := sim.NewKernel(1)
	f := Build(k, Spec{Racks: 1}, tofino.DefaultConfig())
	tor := f.ToR(0)
	if tor.Name() != "tor0" || tor.IP() != ToRIP(0) {
		t.Fatalf("ToR is %s at %v, want tor0 at %v", tor.Name(), tor.IP(), ToRIP(0))
	}
	if f.SpineCount() != 0 || len(f.InterLinks()) != 0 || len(f.uplink[tor]) != 0 {
		t.Fatalf("spines %d, inter-links %d, uplinks %d; want none",
			f.SpineCount(), len(f.InterLinks()), len(f.uplink[tor]))
	}
	if sws := f.Switches(); len(sws) != 1 || sws[0] != tor {
		t.Fatalf("Switches() = %v, want the one ToR", sws)
	}
	if lt := f.LeafTier(); len(lt) != 1 || lt[0] != tor {
		t.Fatalf("LeafTier() = %v, want the one ToR", lt)
	}
	addrs := attach(k, f, 3)
	if _, ok := tor.L3Lookup(ToRIP(0)); ok {
		t.Fatal("the ToR routes its own identity address")
	}
	// With no uplink, the ToR's ports are its access ports, in attach
	// order: host i leaves through port i.
	check := func() {
		t.Helper()
		for i, a := range addrs {
			if p := route(t, tor, a); p != tofino.PortID(i) {
				t.Fatalf("route to %v = port %d, want access port %d", a, p, i)
			}
			if r, ok := f.RackOf(a); !ok || r != 0 {
				t.Fatalf("RackOf(%v) = %d, %v; want 0, true", a, r, ok)
			}
		}
	}
	check()

	f.RerouteAroundSpine(0)
	if f.LiveSpine() != -1 {
		t.Fatalf("LiveSpine() = %d with no spine", f.LiveSpine())
	}
	if f.AdoptRack(0) || f.AdoptedRack() != -1 || f.ToR(0) != tor {
		t.Fatal("AdoptRack moved rack 0 with no standby")
	}
	check()
}

// TestOneRackBackup checks the plain backup of the single-switch
// testbed: a switch of the fabric that is not in its leaf tier (it runs
// no consensus program), holding one local route per host's spare leg.
func TestOneRackBackup(t *testing.T) {
	k := sim.NewKernel(1)
	f := Build(k, Spec{Racks: 1, Backup: true}, tofino.DefaultConfig())
	bk, tor := f.Backup(), f.ToR(0)
	if bk == nil || bk.IP() != BackupIP() || f.Standby() != nil {
		t.Fatalf("backup %v, standby %v; want a backup at %v and no standby", bk, f.Standby(), BackupIP())
	}
	if sws := f.Switches(); len(sws) != 2 || sws[0] != tor || sws[1] != bk {
		t.Fatalf("Switches() = %v, want the ToR then the backup", sws)
	}
	if lt := f.LeafTier(); len(lt) != 1 || lt[0] != tor {
		t.Fatalf("LeafTier() = %v, want the ToR alone", lt)
	}
	for i, a := range attach(k, f, 3) {
		if p := route(t, bk, a); p != tofino.PortID(i) {
			t.Fatalf("backup routes %v to port %d, want its leg %d", a, p, i)
		}
	}
	if _, ok := bk.L3Lookup(ToRIP(0)); ok {
		t.Fatal("the backup routes the ToR's identity address")
	}
	if f.AttachSpare(host(9), k) == nil {
		t.Fatal("AttachSpare returned no leg on a fabric with a backup")
	}
	if Build(k, Spec{Racks: 1}, tofino.DefaultConfig()).AttachSpare(host(0), k) != nil {
		t.Fatal("AttachSpare cabled a leg on a fabric without a spare")
	}
}

// TestBuildRejectsUnreachableRacks checks that zero spines is allowed
// only where nothing must cross one.
func TestBuildRejectsUnreachableRacks(t *testing.T) {
	for _, spec := range []Spec{
		{Racks: 0, Spines: 1},
		{Racks: 2, Spines: 0},
		{Racks: 1, Spines: 0, Standby: true},
		{Racks: 1, Spines: -1},
		{Racks: 1, Spines: 1, Backup: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build(%+v) did not panic", spec)
				}
			}()
			Build(sim.NewKernel(1), spec, tofino.DefaultConfig())
		}()
	}
}

// TestLeafSpineRoutes checks the routes of a 2-rack, 2-spine fabric
// with a standby: spines route each rack down to its ToR, every other
// leaf-tier switch routes up across the rack's spine (rack r crosses
// spine r mod 2), a dead spine's racks move to the surviving one, and
// an adopted rack's routes point at the standby.
func TestLeafSpineRoutes(t *testing.T) {
	k := sim.NewKernel(1)
	f := Build(k, Spec{Racks: 2, Spines: 2, Standby: true}, tofino.DefaultConfig())
	tor0, tor1, sb := f.ToR(0), f.ToR(1), f.Standby()
	if n := len(f.InterLinks()); n != 6 {
		t.Fatalf("%d inter-links, want 6 (2 ToRs and the standby, each to 2 spines)", n)
	}
	addrs := attach(k, f, 4) // hosts 0, 2 in rack 0; 1, 3 in rack 1
	inRack := func(r int) []simnet.Addr {
		out := []simnet.Addr{ToRIP(r)}
		for i, a := range addrs {
			if i%2 == r {
				out = append(out, a)
			}
		}
		return out
	}

	for m := 0; m < 2; m++ {
		sp := f.Spine(m)
		for r := 0; r < 2; r++ {
			for _, a := range inRack(r) {
				if p := route(t, sp, a); p != f.spineDown[m][r] {
					t.Fatalf("spine%d routes %v to port %d, want its downlink to rack %d (%d)",
						m, a, p, r, f.spineDown[m][r])
				}
			}
		}
	}
	// Uplinks are each leaf-tier switch's first ports, one per spine.
	for r, via := range []int{0, 1} {
		other := f.ToR(1 - r)
		for _, a := range inRack(r) {
			if p := route(t, other, a); p != f.uplink[other][via] {
				t.Fatalf("%s routes %v to port %d, want its uplink to spine%d (%d)",
					other.Name(), a, p, via, f.uplink[other][via])
			}
		}
	}
	// The standby reaches each host over its own leg, but the racks'
	// identity addresses across the spines.
	for i, a := range addrs {
		if p := route(t, sb, a); p != tofino.PortID(2+i) {
			t.Fatalf("standby routes %v to port %d, want its access port %d", a, p, 2+i)
		}
	}
	if p := route(t, sb, ToRIP(1)); p != f.uplink[sb][1] {
		t.Fatalf("standby routes %v to port %d, want its uplink to spine1", ToRIP(1), p)
	}

	// Spine 1 dies: rack 1 now crosses spine 0, rack 0 is untouched.
	f.RerouteAroundSpine(1)
	if f.LiveSpine() != 0 {
		t.Fatalf("LiveSpine() = %d, want 0", f.LiveSpine())
	}
	for _, a := range inRack(1) {
		if p := route(t, tor0, a); p != f.uplink[tor0][0] {
			t.Fatalf("after the reroute tor0 routes %v to port %d, want its uplink to spine0", a, p)
		}
	}
	for _, a := range inRack(0) {
		if p := route(t, tor1, a); p != f.uplink[tor1][0] {
			t.Fatalf("after the reroute tor1 routes %v to port %d, want its uplink to spine0", a, p)
		}
	}
	f.RerouteAroundSpine(1) // already dead: a no-op
	if f.viaSpine[0] != 0 || f.viaSpine[1] != 0 {
		t.Fatalf("viaSpine = %v, want [0 0]", f.viaSpine)
	}

	// Rack 1's ToR dies and the standby adopts it: the rack's identity
	// moves, spines route the rack to the standby, the other ToR keeps
	// its uplink route, and the standby delivers the rack locally.
	if !f.AdoptRack(1) {
		t.Fatal("AdoptRack(1) refused")
	}
	if f.ToR(1) != sb || f.OriginalToR(1) != tor1 || f.AdoptedRack() != 1 || sb.IP() != ToRIP(1) {
		t.Fatalf("after adoption ToR(1) = %s at %v, adopted %d", f.ToR(1).Name(), f.ToR(1).IP(), f.AdoptedRack())
	}
	for m := 0; m < 2; m++ {
		for _, a := range inRack(1) {
			if p := route(t, f.Spine(m), a); p != f.spineStandby[m] {
				t.Fatalf("spine%d routes %v to port %d, want its standby downlink (%d)", m, a, p, f.spineStandby[m])
			}
		}
		for _, a := range inRack(0) {
			if p := route(t, f.Spine(m), a); p != f.spineDown[m][0] {
				t.Fatalf("adoption moved spine%d's route to rack-0 address %v", m, a)
			}
		}
	}
	for _, a := range inRack(1) {
		if p := route(t, tor0, a); p != f.uplink[tor0][0] {
			t.Fatalf("after adoption tor0 routes %v to port %d, want its uplink to spine0", a, p)
		}
	}
	for i, a := range addrs {
		if i%2 == 1 {
			if p := route(t, sb, a); p != tofino.PortID(2+i) {
				t.Fatalf("adopting standby routes rack-1 host %v to port %d, want its access port", a, p)
			}
		}
	}
	if f.AdoptRack(0) {
		t.Fatal("a second adoption was accepted; there is one standby")
	}
}

// TestStandbyKeepsHostLegsAcrossReroute is the regression test for a
// spine reroute overwriting the standby's routes to its dual-homed
// hosts with uplink routes. After the standby then adopted the rerouted
// rack, it sent the rack's traffic up to a spine, which sent it back
// down to the standby: a loop that multiplied switch ingress by 14 in
// `p4ce-sim -topology leaf-spine -standby -nodes 5 -crash
// spine1@20ms,tor1@100ms`.
func TestStandbyKeepsHostLegsAcrossReroute(t *testing.T) {
	k := sim.NewKernel(1)
	f := Build(k, Spec{Racks: 2, Spines: 2, Standby: true}, tofino.DefaultConfig())
	addrs := attach(k, f, 4)
	check := func(when string) {
		t.Helper()
		for i, a := range addrs {
			if p := route(t, f.Standby(), a); p != tofino.PortID(2+i) {
				t.Fatalf("%s the standby routes %v to port %d, want its leg to the host (%d)", when, a, p, 2+i)
			}
		}
	}
	f.RerouteAroundSpine(1) // rack 1 crossed spine 1
	check("after the reroute")
	f.AdoptRack(1)
	check("after adopting rack 1")
}
