package tofino

import (
	"fmt"

	"p4ce/internal/metrics"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// PortID identifies a front-panel port.
type PortID int

// Verdict is the ingress decision for a packet.
type Verdict int

// Ingress verdicts.
const (
	VerdictDrop Verdict = iota
	VerdictForward
	VerdictMulticast
	VerdictToCPU
)

// IngressResult carries the verdict and its argument.
type IngressResult struct {
	Verdict Verdict
	OutPort PortID  // VerdictForward
	Group   GroupID // VerdictMulticast
}

// Program is a data-plane program. Ingress runs once per received
// packet; Egress runs once per outgoing copy (rid identifies the copy
// for multicast packets, and is zero for unicast). Egress returns false
// to drop the copy. Programs may mutate the packet's header fields in
// place; the switch re-encodes them on transmission, over the received
// frame when the copy is that frame's last holder and its payload and
// size are unchanged, into a fresh frame otherwise. The payload is
// shared copy-on-write between the multicast copies and the original
// frame buffer, so a program that rewrites payload *bytes* must call
// Packet.OwnPayload first (header rewrites need nothing).
type Program interface {
	Ingress(sw *Switch, in PortID, pkt *roce.Packet) IngressResult
	Egress(sw *Switch, out PortID, rid uint16, pkt *roce.Packet) bool
}

// CPUHandler receives packets punted to the control plane.
type CPUHandler func(in PortID, pkt *roce.Packet)

// First-generation Tofino timing constants (see DESIGN.md §5).
const (
	// PipelineLatency is the fixed match-action traversal time.
	PipelineLatency = 400 * sim.Nanosecond
	// CPUPuntLatency is the PCIe+driver delay for packets sent to the
	// control plane, and for packets the control plane injects.
	CPUPuntLatency = 10 * sim.Microsecond
)

// Config holds the ASIC's timing knob.
type Config struct {
	// ParserServiceTime is the per-packet service time of each per-port
	// parser. The default, 8 ns, is 125 Mpps, rounded from the paper's
	// 121 Mpps (8.26 ns); see ROADMAP U.
	ParserServiceTime sim.Time
}

// DefaultConfig returns first-generation Tofino timing.
func DefaultConfig() Config {
	return Config{
		ParserServiceTime: 8 * sim.Nanosecond, // 125 Mpps, rounded from the paper's 121 Mpps (8.26 ns); see ROADMAP U
	}
}

// Stats counts data-plane events.
type Stats struct {
	IngressPackets uint64
	EgressPackets  uint64
	Forwarded      uint64
	MulticastIn    uint64
	Copies         uint64
	Punted         uint64
	DroppedIngress uint64
	DroppedEgress  uint64
	ParseErrors    uint64
}

// swPort is one front-panel port with its two parsers.
type swPort struct {
	id      PortID
	net     *simnet.Port
	ingress sim.Stage
	egress  sim.Stage
}

// Switch is one programmable switch.
type Switch struct {
	k    *sim.Kernel
	name string
	ip   simnet.Addr
	cfg  Config

	ports   []*swPort
	program Program
	cpu     CPUHandler
	mcast   map[GroupID][]GroupMember
	l3      map[simnet.Addr]PortID
	regs    map[string]*Register

	crashed bool

	// Pipeline recycling: pooled per-frame ingress jobs, per-copy egress
	// jobs and frame refcounts, plus persistent stage callbacks, keep the
	// scatter/gather fast path allocation-free. The scratch rxPkt is safe
	// because ingress stages run one at a time on the kernel.
	ingFree   sim.FreeList[ingressJob]
	egrFree   sim.FreeList[egressJob]
	shrFree   sim.FreeList[frameShare]
	ingressFn func(any)
	egrEmitFn func(any)
	rxPkt     roce.Packet

	// Stats counts data-plane events.
	Stats Stats
	// remarshals counts copies marshalled into a fresh frame (see emit).
	remarshals uint64

	// Metric handles; nil no-ops when the kernel has no registry.
	mIngress     *metrics.Counter
	mEgress      *metrics.Counter
	mForwarded   *metrics.Counter
	mMulticastIn *metrics.Counter
	mCopies      *metrics.Counter
	mPunted      *metrics.Counter
	mDrops       *metrics.Counter
	mParseErrors *metrics.Counter
	mFanout      *metrics.Histogram // replication copies per multicast packet
}

// New creates a switch named name with the management address ip.
func New(k *sim.Kernel, name string, ip simnet.Addr, cfg Config) *Switch {
	m := k.Metrics()
	sw := &Switch{
		k:     k,
		name:  name,
		ip:    ip,
		cfg:   cfg,
		mcast: make(map[GroupID][]GroupMember),
		l3:    make(map[simnet.Addr]PortID),
		regs:  make(map[string]*Register),

		mIngress:     m.Counter("tofino.ingress_packets"),
		mEgress:      m.Counter("tofino.egress_packets"),
		mForwarded:   m.Counter("tofino.forwarded"),
		mMulticastIn: m.Counter("tofino.multicast_in"),
		mCopies:      m.Counter("tofino.copies"),
		mPunted:      m.Counter("tofino.punted"),
		mDrops:       m.Counter("tofino.dropped"),
		mParseErrors: m.Counter("tofino.parse_errors"),
		mFanout:      m.Histogram("tofino.multicast_fanout"),
	}
	sw.ingressFn = sw.ingressStep
	sw.egrEmitFn = sw.egressEmit
	return sw
}

// ingressJob carries one received frame across the ingress parser delay
// when ingress cannot run at delivery: the parser is backlogged.
type ingressJob struct {
	p     *swPort
	frame []byte
}

// egressJob carries one outgoing copy through the pipeline and egress
// parser stages. pkt is the copy's own header struct; its payload
// aliases the ingress frame held alive by share. at is the booked end
// of its egress parser slot.
type egressJob struct {
	dst   *swPort
	out   PortID
	rid   uint16
	at    sim.Time
	pkt   roce.Packet
	share *frameShare
}

// frameShare refcounts an ingress frame across the egress copies whose
// packet payloads alias it; the frame returns to the buffer pool when
// the last copy is marshaled or dropped, unless that copy leaves in it.
type frameShare struct {
	frame []byte
	refs  int
}

func (sw *Switch) putIngressJob(j *ingressJob) {
	j.p, j.frame = nil, nil
	sw.ingFree.Put(j)
}

func (sw *Switch) putEgressJob(j *egressJob) {
	j.pkt = roce.Packet{} // drop the payload alias
	j.dst, j.share = nil, nil
	sw.egrFree.Put(j)
}

// getShare wraps frame with one reference (the caller's hold).
func (sw *Switch) getShare(frame []byte) *frameShare {
	s := sw.shrFree.Get()
	s.frame, s.refs = frame, 1
	return s
}

func (sw *Switch) releaseShare(s *frameShare) {
	s.refs--
	if s.refs > 0 {
		return
	}
	sw.k.Buffers().Put(s.frame)
	s.frame = nil
	sw.shrFree.Put(s)
}

// dropEgressJob releases a copy that will not be emitted.
func (sw *Switch) dropEgressJob(j *egressJob) {
	sw.releaseShare(j.share)
	sw.putEgressJob(j)
}

// IP returns the switch's own address (the one P4CE leaders dial).
func (sw *Switch) IP() simnet.Addr { return sw.ip }

// SetIP rebinds the switch's management address — the VRRP-style
// takeover a standby switch performs when it adopts a dead peer's
// identity. Hosts keep dialing the address they were configured with;
// only which physical ASIC answers changes. Routes and programs are the
// control plane's to update.
func (sw *Switch) SetIP(ip simnet.Addr) { sw.ip = ip }

// Name returns the switch's human-readable name (diagnostics).
func (sw *Switch) Name() string { return sw.name }

// Kernel returns the simulation kernel.
func (sw *Switch) Kernel() *sim.Kernel { return sw.k }

// SetProgram installs the data-plane program.
func (sw *Switch) SetProgram(p Program) { sw.program = p }

// SetCPUHandler installs the control-plane packet receiver.
func (sw *Switch) SetCPUHandler(h CPUHandler) { sw.cpu = h }

// AddPort creates a front-panel port and returns its id plus the network
// endpoint to cable to a host NIC (or another switch).
func (sw *Switch) AddPort(name string) (PortID, *simnet.Port) {
	id := PortID(len(sw.ports))
	np := simnet.NewPort(sw.k, fmt.Sprintf("%s/%s", sw.name, name), nil)
	np.SetRxDelay(sw.cfg.ParserServiceTime)
	p := &swPort{id: id, net: np}
	np.SetHandler(simnet.HandlerFunc(func(_ *simnet.Port, frame []byte) {
		sw.receive(p, frame)
	}))
	sw.ports = append(sw.ports, p)
	return id, np
}

// BindAddr installs an L3 route: traffic for addr exits through port.
func (sw *Switch) BindAddr(addr simnet.Addr, port PortID) { sw.l3[addr] = port }

// L3Lookup resolves a destination address to an output port.
func (sw *Switch) L3Lookup(addr simnet.Addr) (PortID, bool) {
	p, ok := sw.l3[addr]
	return p, ok
}

// Crash powers the switch off: all ports drop, state freezes.
func (sw *Switch) Crash() {
	sw.crashed = true
	for _, p := range sw.ports {
		p.net.SetUp(false)
	}
}

// Restore powers the switch back on.
func (sw *Switch) Restore() {
	sw.crashed = false
	for _, p := range sw.ports {
		p.net.SetUp(true)
	}
}

// Reboot power-cycles the switch. Ports drop as with Crash, but unlike
// Crash/Restore — which freeze state across the outage — a power cycle
// loses everything volatile: the multicast replication engine's groups
// and the contents of every register array. The L3 bindings and the
// program image are part of the startup configuration and survive;
// entries the control plane installed into the program's match tables
// are the program's own state, which it must wipe itself (see
// p4ce.Dataplane.Reset). The control plane is expected to re-program
// the data plane after Restore.
func (sw *Switch) Reboot() {
	sw.Crash()
	sw.mcast = make(map[GroupID][]GroupMember)
	for _, r := range sw.regs {
		r.Clear()
	}
}

// Crashed reports whether the switch is down.
func (sw *Switch) Crashed() bool { return sw.crashed }

// receive runs the ingress side of the pipeline for one frame. Switch
// ports carry a receive delay of one parser service time (AddPort), so
// the frame is delivered at its arrival + svc and the parser is booked
// from the true arrival, now − svc.
func (sw *Switch) receive(p *swPort, frame []byte) {
	if sw.crashed {
		sw.k.Buffers().Put(frame)
		return
	}
	// The per-port ingress parser serializes packets at its pps capacity:
	// this is the resource whose placement the paper's Lesson in §IV-D is
	// about.
	svc, now := sw.cfg.ParserServiceTime, sw.k.Now()
	done := p.ingress.Book(now-svc, svc)
	// A frame that met an idle parser is done with it now, and its
	// delivery already sorts where the ingress step would have: after
	// every event the switch's domain has for this instant. A frame from
	// another domain gets there by its domain's key, one from a switch of
	// the same domain by the kernel's arrival lane (sim.Kernel.SendTo).
	// Only a frame that finds its parser backlogged takes a step.
	if done == now {
		sw.ingress(p, frame)
		return
	}
	j := sw.ingFree.Get()
	j.p, j.frame = p, frame
	sw.k.AtArg(done, sw.ingressFn, j)
}

// ingressStep is the persistent callback running ingress after the
// parser delay.
func (sw *Switch) ingressStep(a any) {
	j := a.(*ingressJob)
	p, frame := j.p, j.frame
	sw.putIngressJob(j)
	sw.ingress(p, frame)
}

func (sw *Switch) ingress(p *swPort, frame []byte) {
	if sw.crashed {
		sw.k.Buffers().Put(frame)
		return
	}
	// Decode into the scratch packet; the payload aliases the frame, so
	// the frame must stay alive until every egress copy is marshaled —
	// that is what the frameShare refcount tracks.
	pkt := &sw.rxPkt
	if err := roce.UnmarshalInto(frame, pkt); err != nil {
		sw.Stats.ParseErrors++
		sw.mParseErrors.Inc()
		sw.k.Buffers().Put(frame)
		return
	}
	sw.Stats.IngressPackets++
	sw.mIngress.Inc()
	res := IngressResult{Verdict: VerdictDrop}
	if sw.program != nil {
		res = sw.program.Ingress(sw, p.id, pkt)
	}
	switch res.Verdict {
	case VerdictDrop:
		sw.Stats.DroppedIngress++
		sw.mDrops.Inc()
		pkt.Payload = nil
		sw.k.Buffers().Put(frame)
	case VerdictForward:
		sw.Stats.Forwarded++
		sw.mForwarded.Inc()
		share := sw.getShare(frame)
		if j := sw.toEgress(res.OutPort, 0, pkt, share); j != nil {
			sw.k.AtArg(j.at, sw.egrEmitFn, j)
		}
		sw.releaseShare(share) // drop the ingress hold
	case VerdictMulticast:
		sw.Stats.MulticastIn++
		sw.mMulticastIn.Inc()
		members := sw.mcast[res.Group]
		sw.mFanout.Observe(int64(len(members)))
		share := sw.getShare(frame)
		for _, m := range members {
			sw.Stats.Copies++
			sw.mCopies.Inc()
			// The replication engine hands each port its own copy; the
			// copies share the payload buffer copy-on-write. Copies that
			// leave at one instant have adjacent event keys, so the
			// kernel queues them as one heap entry.
			if j := sw.toEgress(m.Port, m.RID, pkt, share); j != nil {
				sw.k.AtArg(j.at, sw.egrEmitFn, j)
			}
		}
		sw.releaseShare(share) // drop the ingress hold
	case VerdictToCPU:
		sw.Stats.Punted++
		sw.mPunted.Inc()
		if sw.cpu != nil {
			// The punted packet outlives the frame: deep-copy it. Punts
			// are control-plane traffic, far off the fast path.
			pc := pkt.Clone()
			in := p.id
			sw.k.Schedule(CPUPuntLatency, func() { sw.cpu(in, pc) })
		}
		pkt.Payload = nil
		sw.k.Buffers().Put(frame)
	}
}

// toEgress moves one outgoing copy through the buffer into the egress
// pipeline of the output port. The copy gets its own Packet struct but
// shares the payload (and the ingress frame, via share) copy-on-write.
// It books the port's egress parser, which every copy consumes even if
// the program drops it, from the end of the constant pipeline traversal:
// this switch replicates in nondecreasing time, so that is exact. It
// returns the booked copy for the caller to schedule at j.at, or nil if
// out is no port.
func (sw *Switch) toEgress(out PortID, rid uint16, pkt *roce.Packet, share *frameShare) *egressJob {
	if int(out) >= len(sw.ports) {
		sw.Stats.DroppedEgress++
		sw.mDrops.Inc()
		return nil
	}
	j := sw.egrFree.Get()
	j.dst, j.out, j.rid = sw.ports[out], out, rid
	j.pkt = *pkt
	j.share = share
	share.refs++
	j.at = j.dst.egress.Book(sw.k.Now()+PipelineLatency, sw.cfg.ParserServiceTime)
	return j
}

// egressEmit runs the egress program for one copy and transmits it. It
// is the one gate for copies caught in flight by a Crash: a copy is
// dropped if the switch is down at its emit instant (its parser slot
// stays booked) and sent if a Restore came first.
func (sw *Switch) egressEmit(a any) {
	j := a.(*egressJob)
	if sw.crashed {
		sw.dropEgressJob(j)
		return
	}
	sw.Stats.EgressPackets++
	sw.mEgress.Inc()
	if sw.program != nil && !sw.program.Egress(sw, j.out, j.rid, &j.pkt) {
		sw.Stats.DroppedEgress++
		sw.mDrops.Inc()
		sw.dropEgressJob(j)
		return
	}
	frame := j.share.frame
	if j.share.refs == 1 && j.pkt.MarshalInPlace(frame) {
		// The copy is its frame's last holder and still fits it: the
		// frame leaves as received, headers re-encoded in place, and the
		// wire takes it over from the share.
		j.share.frame = nil
	} else {
		sw.remarshals++
		frame = sw.k.Buffers().GetUnzeroed(j.pkt.WireSize()) // MarshalInto writes every byte
		j.pkt.MarshalInto(frame)
	}
	j.dst.net.Send(frame)
	sw.dropEgressJob(j)
}

// Remarshals returns how many copies the egress marshalled into a fresh
// frame: every copy but those that left in the frame they arrived in.
func (sw *Switch) Remarshals() uint64 { return sw.remarshals }

// InjectFromCP transmits a control-plane-crafted packet out of the port
// that routes to dst, after the CPU injection latency.
func (sw *Switch) InjectFromCP(pkt *roce.Packet) {
	out, ok := sw.L3Lookup(pkt.DstIP)
	if !ok {
		return
	}
	sw.k.Schedule(CPUPuntLatency, func() {
		if sw.crashed {
			return
		}
		sw.ports[out].net.Send(pkt.Marshal())
	})
}

// PortBacklog reports how far ahead of now a port's egress parser is
// booked, including copies still in the match-action pipeline (tests of
// the parser-bottleneck ablation).
func (sw *Switch) PortBacklog(id PortID) sim.Time {
	return sw.ports[id].egress.Backlog(sw.k.Now())
}
