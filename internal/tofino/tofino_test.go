package tofino

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"p4ce/internal/metrics"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// endpoints capture frames arriving at host-side ports.
type endpoint struct {
	k      *sim.Kernel
	port   *simnet.Port
	frames []*roce.Packet
	at     []sim.Time
}

func newEndpoint(k *sim.Kernel, name string) *endpoint {
	e := &endpoint{k: k}
	e.port = simnet.NewPort(k, name, simnet.HandlerFunc(func(_ *simnet.Port, frame []byte) {
		pkt, err := roce.Unmarshal(frame)
		if err != nil {
			return
		}
		e.frames = append(e.frames, pkt)
		e.at = append(e.at, k.Now())
	}))
	return e
}

// testFabric is a switch with attached hosts, three unless stated.
type testFabric struct {
	k     *sim.Kernel
	sw    *Switch
	hosts []*endpoint
	addrs []simnet.Addr
}

func newTestFabric(t *testing.T, prog Program) *testFabric {
	return newTestFabricN(t, prog, 3)
}

func newTestFabricN(t *testing.T, prog Program, hosts int) *testFabric {
	t.Helper()
	k := sim.NewKernel(5)
	tf := &testFabric{k: k}
	tf.sw = New(k, "tofino", simnet.AddrFrom(10, 0, 0, 254), DefaultConfig())
	tf.sw.SetProgram(prog)
	for i := 0; i < hosts; i++ {
		addr := simnet.AddrFrom(10, 0, 0, byte(i+1))
		host := newEndpoint(k, "host")
		pid, swPort := tf.sw.AddPort("p")
		simnet.Connect(host.port, swPort, simnet.DefaultLinkConfig())
		tf.sw.BindAddr(addr, pid)
		tf.hosts = append(tf.hosts, host)
		tf.addrs = append(tf.addrs, addr)
	}
	return tf
}

func testPacket(src, dst simnet.Addr) *roce.Packet {
	return &roce.Packet{
		SrcIP: src, DstIP: dst, OpCode: roce.OpWriteOnly,
		DestQP: 7, PSN: 1, VA: 64, RKey: 3, DMALen: 4, Payload: []byte("data"),
	}
}

func TestL3Forwarding(t *testing.T) {
	tf := newTestFabric(t, &L3Program{})
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.addrs[2]).Marshal())
	tf.k.Run()
	if len(tf.hosts[2].frames) != 1 {
		t.Fatalf("host2 received %d frames, want 1", len(tf.hosts[2].frames))
	}
	if len(tf.hosts[1].frames) != 0 {
		t.Fatal("host1 received a frame not addressed to it")
	}
	got := tf.hosts[2].frames[0]
	if got.DstIP != tf.addrs[2] || string(got.Payload) != "data" {
		t.Fatalf("forwarded packet mangled: %+v", got)
	}
}

func TestL3DropsUnknownDestination(t *testing.T) {
	tf := newTestFabric(t, &L3Program{})
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], simnet.AddrFrom(99, 9, 9, 9)).Marshal())
	tf.k.Run()
	if tf.sw.Stats.DroppedIngress != 1 {
		t.Fatalf("DroppedIngress = %d, want 1", tf.sw.Stats.DroppedIngress)
	}
}

func TestPuntToCPU(t *testing.T) {
	tf := newTestFabric(t, &L3Program{PuntSelf: true})
	var punted *roce.Packet
	var puntedAt sim.Time
	tf.sw.SetCPUHandler(func(in PortID, pkt *roce.Packet) {
		punted = pkt
		puntedAt = tf.k.Now()
	})
	sent := tf.k.Now()
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.sw.IP()).Marshal())
	tf.k.Run()
	if punted == nil {
		t.Fatal("packet addressed to switch not punted")
	}
	if puntedAt-sent < CPUPuntLatency {
		t.Fatalf("punt arrived after %v, want ≥ %v", puntedAt-sent, CPUPuntLatency)
	}
}

// mcastProgram multicasts everything addressed to the switch to group 1
// and tags copies with their RID in the payload at egress.
type mcastProgram struct {
	L3Program
	egressRIDs []uint16
}

func (p *mcastProgram) Ingress(sw *Switch, in PortID, pkt *roce.Packet) IngressResult {
	if pkt.DstIP == sw.IP() {
		return IngressResult{Verdict: VerdictMulticast, Group: 1}
	}
	return p.L3Program.Ingress(sw, in, pkt)
}

func (p *mcastProgram) Egress(sw *Switch, out PortID, rid uint16, pkt *roce.Packet) bool {
	p.egressRIDs = append(p.egressRIDs, rid)
	if pkt.DstIP == sw.IP() {
		// Rewrite each copy for its member (minimal: retarget the IP).
		if int(out) == 1 {
			pkt.DstIP = simnet.AddrFrom(10, 0, 0, 2)
		} else {
			pkt.DstIP = simnet.AddrFrom(10, 0, 0, 3)
		}
	}
	return true
}

func TestMulticastReplication(t *testing.T) {
	prog := &mcastProgram{}
	tf := newTestFabric(t, prog)
	tf.sw.SetMulticastGroup(1, []GroupMember{
		{Port: 1, RID: 10},
		{Port: 2, RID: 20},
	})
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.sw.IP()).Marshal())
	tf.k.Run()
	if len(tf.hosts[1].frames) != 1 || len(tf.hosts[2].frames) != 1 {
		t.Fatalf("copies received = (%d, %d), want (1, 1)",
			len(tf.hosts[1].frames), len(tf.hosts[2].frames))
	}
	if tf.hosts[1].frames[0].DstIP != tf.addrs[1] {
		t.Fatal("copy for host1 not rewritten")
	}
	if len(prog.egressRIDs) != 2 || prog.egressRIDs[0] == prog.egressRIDs[1] {
		t.Fatalf("egress RIDs = %v, want two distinct", prog.egressRIDs)
	}
	if tf.sw.Stats.Copies != 2 {
		t.Fatalf("Copies = %d, want 2", tf.sw.Stats.Copies)
	}
}

func TestMulticastCopiesAreIndependent(t *testing.T) {
	// Mutating one copy at egress must not affect the other: the
	// replication engine hands out carbon copies.
	prog := &mcastProgram{}
	tf := newTestFabric(t, prog)
	tf.sw.SetMulticastGroup(1, []GroupMember{{Port: 1, RID: 1}, {Port: 2, RID: 2}})
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.sw.IP()).Marshal())
	tf.k.Run()
	a, b := tf.hosts[1].frames[0], tf.hosts[2].frames[0]
	if a.DstIP == b.DstIP {
		t.Fatal("copies share rewrite state")
	}
	if string(a.Payload) != "data" || string(b.Payload) != "data" {
		t.Fatal("payload corrupted during replication")
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	tf := newTestFabric(t, &L3Program{})
	tf.sw.Crash()
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.addrs[1]).Marshal())
	tf.k.Run()
	if len(tf.hosts[1].frames) != 0 {
		t.Fatal("crashed switch forwarded a frame")
	}
	tf.sw.Restore()
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.addrs[1]).Marshal())
	tf.k.Run()
	if len(tf.hosts[1].frames) != 1 {
		t.Fatal("restored switch did not forward")
	}
}

func TestParserSerializesAtCapacity(t *testing.T) {
	tf := newTestFabric(t, &L3Program{})
	// Two frames arriving (nearly) together are parsed 8 ns apart.
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.addrs[1]).Marshal())
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.addrs[1]).Marshal())
	tf.k.Run()
	if len(tf.hosts[1].at) != 2 {
		t.Fatalf("frames delivered = %d", len(tf.hosts[1].at))
	}
	// The inter-arrival gap reflects the upstream link serialization
	// (dominant) — the parser adds its 8 ns on top without reordering.
	if tf.hosts[1].at[1] <= tf.hosts[1].at[0] {
		t.Fatal("parser reordered frames")
	}
}

func TestInjectFromCP(t *testing.T) {
	tf := newTestFabric(t, &L3Program{})
	pkt := testPacket(tf.sw.IP(), tf.addrs[1])
	tf.sw.InjectFromCP(pkt)
	tf.k.Run()
	if len(tf.hosts[1].frames) != 1 {
		t.Fatal("CP-injected packet not delivered")
	}
}

func TestRegisters(t *testing.T) {
	tf := newTestFabric(t, &L3Program{})
	r := tf.sw.AllocRegister("numRecv", 256)
	if r.Size() != 256 {
		t.Fatalf("Size = %d", r.Size())
	}
	r.Write(5, 41)
	if got := r.AddRead(5, 1); got != 42 {
		t.Fatalf("AddRead = %d, want 42", got)
	}
	if got := r.Read(5); got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
	if got, ok := tf.sw.Register("numRecv"); !ok || got != r {
		t.Fatal("register lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register allocation did not panic")
		}
	}()
	tf.sw.AllocRegister("numRecv", 1)
}

func TestMinFoldMatchesMin(t *testing.T) {
	tests := []struct{ a, b, want uint32 }{
		{1, 2, 1}, {2, 1, 1}, {7, 7, 7}, {0, 0xFFFFFFFF, 0}, {0xFFFFFFFF, 0, 0},
	}
	for _, tt := range tests {
		if got := MinFold(tt.a, tt.b); got != tt.want {
			t.Errorf("MinFold(%d, %d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: the subtract-underflow + identity-hash idiom computes the
// true minimum for all inputs (paper §IV-D).
func TestMinFoldProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		want := a
		if b < a {
			want = b
		}
		return MinFold(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: folding MinFold over a slice yields the global minimum —
// this is how the credit registers arranged across the pipeline compute
// the minimum credit across replicas.
func TestMinFoldChainProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		acc := vals[0]
		want := vals[0]
		for _, v := range vals[1:] {
			acc = MinFold(acc, v)
			if v < want {
				want = v
			}
		}
		return acc == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEgressBacklogAccumulates(t *testing.T) {
	// Many copies to the same output port queue at its egress parser;
	// this is the leader-egress bottleneck from the paper's Lesson.
	tf := newTestFabric(t, &mcastProgram{})
	tf.sw.SetMulticastGroup(1, []GroupMember{{Port: 1, RID: 1}})
	for i := 0; i < 100; i++ {
		tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.sw.IP()).Marshal())
	}
	// Drive only until the first few frames traverse: backlog must be
	// visible while the burst is in flight.
	sawBacklog := false
	for i := 0; i < 100000 && tf.k.Step(); i++ {
		if tf.sw.PortBacklog(1) > 0 {
			sawBacklog = true
		}
	}
	if !sawBacklog {
		t.Fatal("egress parser backlog never observed during burst")
	}
}

// recordingProgram multicasts a packet for the switch to group PSN%3+1
// and forwards everything else by L3, logging every ingress decision
// and every egress copy with its instant.
type recordingProgram struct {
	L3Program
	ingress []ingressRec
	egress  map[PortID][]copyRec
}

type ingressRec struct {
	at    sim.Time
	psn   uint32
	ports []PortID
	rids  []uint16
}

type copyRec struct {
	at  sim.Time
	psn uint32
	rid uint16
}

func (p *recordingProgram) Ingress(sw *Switch, in PortID, pkt *roce.Packet) IngressResult {
	rec := ingressRec{at: sw.Kernel().Now(), psn: pkt.PSN}
	var res IngressResult
	if pkt.DstIP == sw.IP() {
		res = IngressResult{Verdict: VerdictMulticast, Group: GroupID(pkt.PSN%3 + 1)}
		for _, m := range sw.mcast[res.Group] {
			rec.ports = append(rec.ports, m.Port)
			rec.rids = append(rec.rids, m.RID)
		}
	} else {
		res = p.L3Program.Ingress(sw, in, pkt)
		rec.ports, rec.rids = []PortID{res.OutPort}, []uint16{0}
	}
	p.ingress = append(p.ingress, rec)
	return res
}

func (p *recordingProgram) Egress(sw *Switch, out PortID, rid uint16, pkt *roce.Packet) bool {
	p.egress[out] = append(p.egress[out], copyRec{at: sw.Kernel().Now(), psn: pkt.PSN, rid: rid})
	return true
}

// TestEgressBookingMatchesTwoStageModel checks that booking a copy's
// egress parser slot at replication time is exact: random bursts on
// three ingress ports, replicated onto shared, contended output ports,
// must leave every port in the order and at the instants of the
// two-stage reference, in which a copy enters its port's egress queue
// one pipeline traversal after ingress and only then books the parser.
func TestEgressBookingMatchesTwoStageModel(t *testing.T) {
	prog := &recordingProgram{egress: make(map[PortID][]copyRec)}
	tf := newTestFabricN(t, prog, 6)
	tf.sw.SetMulticastGroup(1, []GroupMember{{Port: 3, RID: 1}, {Port: 4, RID: 2}, {Port: 5, RID: 3}})
	tf.sw.SetMulticastGroup(2, []GroupMember{{Port: 5, RID: 4}, {Port: 4, RID: 5}})
	tf.sw.SetMulticastGroup(3, []GroupMember{{Port: 4, RID: 6}, {Port: 1, RID: 7}, {Port: 5, RID: 8}, {Port: 3, RID: 9}})
	rng := rand.New(rand.NewSource(11))
	psn := uint32(0)
	for burst := 0; burst < 40; burst++ {
		at := sim.Time(rng.Intn(20000))
		src := rng.Intn(3)
		n := 1 + rng.Intn(12)
		tf.k.At(at, func() {
			for i := 0; i < n; i++ {
				dst := tf.sw.IP()
				if rng.Intn(4) == 0 {
					dst = tf.addrs[3+rng.Intn(3)]
				}
				psn++
				pkt := testPacket(tf.addrs[src], dst)
				pkt.PSN = psn
				tf.hosts[src].port.Send(pkt.Marshal())
			}
		})
	}
	tf.k.Run()

	cfg := DefaultConfig()
	want := twoStageModel(prog.ingress)
	copies := 0
	for _, w := range want {
		copies += len(w)
	}
	if copies < 200 {
		t.Fatalf("only %d copies; the bursts must contend", copies)
	}
	contended := false
	for port, w := range want {
		got := prog.egress[port]
		if !slices.Equal(got, w) {
			t.Fatalf("port %d: emitted %v, two-stage model %v", port, got, w)
		}
		for i := 1; i < len(w); i++ {
			contended = contended || w[i].at-w[i-1].at == cfg.ParserServiceTime
		}
	}
	if !contended {
		t.Fatal("no port ever had a backlog at its egress parser")
	}
}

// TestMulticastCopiesShareOneEmit checks that the copies of one
// multicast frame that leave the switch at the same instant take one
// kernel heap entry between them — one count in Processed, though each
// copy runs its own egress callback — that a copy held back by a
// backlogged egress parser takes its own, and that either way every copy
// leaves at the instant of the per-copy two-stage model.
func TestMulticastCopiesShareOneEmit(t *testing.T) {
	// newFabric returns a five-host switch with metrics on, in which a
	// frame for the switch with PSN p multicasts to group p%3+1.
	newFabric := func(groups map[GroupID][]GroupMember) (*testFabric, *recordingProgram, *metrics.Registry) {
		prog := &recordingProgram{egress: make(map[PortID][]copyRec)}
		tf := newTestFabricN(t, prog, 5)
		reg := metrics.New()
		tf.k.SetMetrics(reg)
		for g, members := range groups {
			tf.sw.SetMulticastGroup(g, members)
		}
		return tf, prog, reg
	}
	send := func(tf *testFabric, at sim.Time, src int, psn uint32) {
		tf.k.At(at, func() {
			pkt := testPacket(tf.addrs[src], tf.sw.IP())
			pkt.PSN = psn
			tf.hosts[src].port.Send(pkt.Marshal())
		})
	}
	// run steps the kernel dry, one callback per Step, and returns what
	// the steps that emitted a copy added to Processed: the heap entries
	// the egress took.
	run := func(tf *testFabric, prog *recordingProgram) int {
		emitted := func() (n int) {
			for _, w := range prog.egress {
				n += len(w)
			}
			return n
		}
		entries := 0
		for {
			copies, events := emitted(), tf.k.Processed()
			if !tf.k.Step() {
				return entries
			}
			if emitted() > copies {
				entries += int(tf.k.Processed() - events)
			}
		}
	}
	check := func(tf *testFabric, prog *recordingProgram, reg *metrics.Registry, copies, entries int) {
		t.Helper()
		n := run(tf, prog)
		got := 0
		for port, w := range twoStageModel(prog.ingress) {
			if !slices.Equal(prog.egress[port], w) {
				t.Fatalf("port %d: emitted %v, two-stage model %v", port, prog.egress[port], w)
			}
			if n := len(tf.hosts[port].frames); n != len(w) {
				t.Fatalf("host on port %d received %d copies, want %d", port, n, len(w))
			}
			got += len(w)
		}
		if got != copies {
			t.Fatalf("%d copies emitted, want %d", got, copies)
		}
		if n != entries {
			t.Fatalf("%d egress heap entries for %d copies, want %d", n, copies, entries)
		}
		if n := reg.Counter("sim.events.tofino.(*Switch).egressEmit").Value(); n != uint64(copies) {
			t.Fatalf("%d egress callbacks for %d copies, want one each", n, copies)
		}
	}
	group := []GroupMember{{Port: 2, RID: 1}, {Port: 3, RID: 2}, {Port: 4, RID: 3}}

	// Idle parsers: the three copies leave together on one entry.
	tf, prog, reg := newFabric(map[GroupID][]GroupMember{1: group})
	send(tf, 0, 0, 3)
	check(tf, prog, reg, 3, 1)

	// Three copies of an earlier frame queue on port 4's parser, so
	// the second frame's port-4 copy leaves after its siblings and takes
	// an entry of its own; the siblings still share one.
	svc := DefaultConfig().ParserServiceTime
	tf, prog, reg = newFabric(map[GroupID][]GroupMember{
		1: group,
		2: {{Port: 4, RID: 4}, {Port: 4, RID: 5}, {Port: 4, RID: 6}},
	})
	send(tf, 0, 1, 1)
	send(tf, svc, 0, 3)
	check(tf, prog, reg, 6, 3+2)
	at := func(port PortID) sim.Time { return prog.egress[port][len(prog.egress[port])-1].at }
	if !(at(2) == at(3) && at(4) > at(2)) {
		t.Fatalf("second frame's copies left at %v, %v, %v: want port 4 alone and last", at(2), at(3), at(4))
	}
}

// twoStageModel is the per-copy reference of
// TestEgressBookingMatchesTwoStageModel and
// TestMulticastCopiesShareOneEmit: each copy enters its port's egress
// queue one pipeline traversal after its ingress, in instant and then
// scheduling order, and books the port's parser from there. It returns
// every port's copies in the order and at the instants they leave.
func twoStageModel(ingress []ingressRec) map[PortID][]copyRec {
	cfg := DefaultConfig()
	type enq struct {
		at   sim.Time
		port PortID
		copy copyRec
	}
	var queue []enq
	for _, in := range ingress {
		for i, port := range in.ports {
			queue = append(queue, enq{in.at + PipelineLatency, port, copyRec{psn: in.psn, rid: in.rids[i]}})
		}
	}
	slices.SortStableFunc(queue, func(a, b enq) int { return cmp.Compare(a.at, b.at) })
	free := make(map[PortID]sim.Time)
	want := make(map[PortID][]copyRec)
	for _, e := range queue {
		free[e.port] = max(free[e.port], e.at) + cfg.ParserServiceTime
		e.copy.at = free[e.port]
		want[e.port] = append(want[e.port], e.copy)
	}
	return want
}

// TestIngressBookingMatchesParserQueue checks that running ingress at
// delivery is exact: random bursts of minimum-size frames from hosts on
// a shard domain and on the switch's own domain, some backing up their
// port's parser and some meeting it idle, must reach the program at the
// instants and in the order of the parser queue — per port, in arrival
// order, each frame parsed at max(parser free, arrival) + service time,
// ingresses at one instant in the order their frames arrived. Bursts
// start on a grid of parser service times, so ingresses from different
// ports often share an instant and the order between them is tested.
// Only a frame that found its parser backlogged may cost an ingress
// step, whichever domain sent it: an idle parser's frame is ingressed at
// delivery.
func TestIngressBookingMatchesParserQueue(t *testing.T) {
	link := simnet.DefaultLinkConfig()
	g := sim.NewGroup(5, 2, 1, link.Propagation)
	reg := metrics.New()
	g.SetMetrics(reg)
	// Every frame is for the switch and no multicast group exists, so
	// each ends at ingress.
	prog := &recordingProgram{}
	sw := New(g.Kernel(0), "tofino", simnet.AddrFrom(10, 0, 0, 254), DefaultConfig())
	sw.SetProgram(prog)
	// Hosts 0-3 live on the shard domain, host 4 on the switch's.
	const hosts = 5
	var eps [hosts]*endpoint
	for i := range eps {
		dom := 1
		if i == hosts-1 {
			dom = 0
		}
		eps[i] = newEndpoint(g.Kernel(dom), "host")
		_, swPort := sw.AddPort("p")
		simnet.Connect(eps[i].port, swPort, link)
	}

	// sent is one frame as the reference sees it: its arrival at the
	// switch port and its key in the delivery order (arrival, sender's
	// domain, send order within that domain).
	type sent struct {
		port    int
		psn     uint32
		arrival sim.Time
		dom     int
		ord     int
	}
	var frames []sent
	var txFree [hosts]sim.Time
	var sends [2]int
	wire := func(n int) sim.Time {
		return sim.Time(float64(n+link.FrameOverheadBytes) * 8 / link.BitsPerSecond * float64(sim.Second))
	}
	rng := rand.New(rand.NewSource(17))
	psn := uint32(0)
	for burst := 0; burst < 60; burst++ {
		at := sim.Time(rng.Intn(600)) * DefaultConfig().ParserServiceTime
		src := rng.Intn(hosts)
		n := 1 + rng.Intn(8)
		k := eps[src].k
		k.At(at, func() {
			for i := 0; i < n; i++ {
				psn++
				pkt := testPacket(simnet.AddrFrom(10, 0, 0, byte(src+1)), sw.IP())
				pkt.PSN = psn
				frame := pkt.Marshal()
				txFree[src] = max(txFree[src], k.Now()) + wire(len(frame))
				dom := k.Domain()
				frames = append(frames, sent{src, psn, txFree[src] + link.Propagation, dom, sends[dom]})
				sends[dom]++
				eps[src].port.Send(frame)
			}
		})
	}
	g.Run()

	// The reference parser queue.
	svc := DefaultConfig().ParserServiceTime
	slices.SortStableFunc(frames, func(a, b sent) int {
		return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.dom, b.dom), cmp.Compare(a.ord, b.ord))
	})
	type parsed struct {
		sent
		at sim.Time
	}
	var want []parsed
	var free [hosts]sim.Time
	backlogged := 0
	for _, f := range frames {
		free[f.port] = max(free[f.port], f.arrival) + svc
		if free[f.port] > f.arrival+svc {
			backlogged++
		}
		want = append(want, parsed{f, free[f.port]})
	}
	slices.SortStableFunc(want, func(a, b parsed) int { return cmp.Compare(a.at, b.at) })

	if len(prog.ingress) != len(want) {
		t.Fatalf("%d ingresses, %d frames sent", len(prog.ingress), len(want))
	}
	for i, w := range want {
		if got := prog.ingress[i]; got.at != w.at || got.psn != w.psn {
			t.Fatalf("ingress %d: PSN %d at %v, parser queue PSN %d at %v", i, got.psn, got.at, w.psn, w.at)
		}
	}
	if backlogged == 0 || backlogged == len(want) {
		t.Fatalf("%d of %d frames met a backlogged parser: want both cases", backlogged, len(want))
	}
	if steps := reg.Counter("sim.events.tofino.(*Switch).ingressStep").Value(); steps != uint64(backlogged) {
		t.Fatalf("%d ingress steps for %d ingresses, %d of them behind a backlog: want one step per backlogged frame", steps, len(want), backlogged)
	}
}

// TestCrashDropsCopiesInPipeline crashes the switch while a multicast
// copy is still in the match-action pipeline: its egress slot is
// already booked, but it must not leave the switch, neither while the
// switch is down nor after a later Restore.
func TestCrashDropsCopiesInPipeline(t *testing.T) {
	prog := &mcastProgram{}
	tf := newTestFabric(t, prog)
	tf.sw.SetMulticastGroup(1, []GroupMember{{Port: 1, RID: 1}, {Port: 2, RID: 2}})
	tf.hosts[0].port.Send(testPacket(tf.addrs[0], tf.sw.IP()).Marshal())
	for tf.sw.Stats.Copies == 0 && tf.k.Step() {
	}
	if tf.sw.Stats.Copies != 2 || tf.sw.PortBacklog(1) == 0 {
		t.Fatalf("copies = %d, backlog = %v: want two copies in the pipeline", tf.sw.Stats.Copies, tf.sw.PortBacklog(1))
	}
	tf.sw.Crash()
	tf.k.RunFor(PipelineLatency + 10*DefaultConfig().ParserServiceTime)
	tf.sw.Restore()
	tf.k.Run()
	if n := len(tf.hosts[1].frames) + len(tf.hosts[2].frames); n != 0 {
		t.Fatalf("%d copies left a switch that crashed while they were in the pipeline", n)
	}
	if tf.sw.Stats.EgressPackets != 0 || len(prog.egressRIDs) != 0 {
		t.Fatalf("egress ran %d times for copies dropped by the crash", tf.sw.Stats.EgressPackets)
	}
}
