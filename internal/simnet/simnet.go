package simnet

import (
	"fmt"

	"p4ce/internal/metrics"
	"p4ce/internal/sim"
)

// Addr is an IPv4-style device address.
type Addr uint32

// AddrFrom builds an address from four octets.
func AddrFrom(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four octets of the address.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	o1, o2, o3, o4 := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o1, o2, o3, o4)
}

// Handler consumes frames arriving at a port.
type Handler interface {
	// HandleFrame is invoked by the kernel when a frame finishes
	// arriving at the port. The slice is owned by the receiver; handlers
	// that are done with it should release it to the kernel's buffer
	// pool (sim.Kernel.Buffers) so the fabric can recycle it.
	HandleFrame(p *Port, frame []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Port, frame []byte)

// HandleFrame calls f(p, frame).
func (f HandlerFunc) HandleFrame(p *Port, frame []byte) { f(p, frame) }

// LinkConfig describes one link's physical characteristics.
type LinkConfig struct {
	// BitsPerSecond is the serialization rate, e.g. 100e9 for 100 GbE.
	BitsPerSecond float64
	// Propagation is the one-way signal flight time.
	Propagation sim.Time
	// FrameOverheadBytes is added to every frame on the wire but never
	// delivered: Ethernet preamble (8 B) + inter-frame gap (12 B).
	FrameOverheadBytes int
	// MaxFrameBytes rejects over-sized frames; 0 means unlimited.
	MaxFrameBytes int
}

// DefaultLinkConfig returns the testbed link: 100 GbE, 300 ns propagation,
// 20 B preamble+IFG, 1518 B maximum frame plus RoCE headroom.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		BitsPerSecond:      100e9,
		Propagation:        300 * sim.Nanosecond,
		FrameOverheadBytes: 20,
		MaxFrameBytes:      1600,
	}
}

// PortStats counts traffic through a port.
type PortStats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	TxDropped          uint64 // dropped at send time (link down / loss / oversize)
}

// Port is one endpoint of a link.
type Port struct {
	name    string
	k       *sim.Kernel
	handler Handler
	peer    *Port
	cfg     LinkConfig

	tx       sim.Stage // the transmit side: one frame serializes at a time
	rxDelay  sim.Time  // latency of the device behind the port (SetRxDelay)
	up       bool
	lossProb float64
	lossFn   LossFunc
	delayFn  DelayFunc
	stats    PortStats
	taps     []TapFunc

	// Metric handles, resolved once in NewPort; all nil (no-op) when
	// the kernel carries no registry. Ports share the fabric-wide
	// instruments rather than minting per-port names, keeping
	// cardinality flat however many ports a topology has.
	mTxFrames  *metrics.Counter
	mTxBytes   *metrics.Counter
	mRxFrames  *metrics.Counter
	mRxBytes   *metrics.Counter
	mTxDropped *metrics.Counter
	mTapEvents *metrics.Counter
	mWireNs    *metrics.Counter   // ns of link occupancy booked (utilization numerator)
	mBacklogNs *metrics.Histogram // tx queue depth, in ns of wire time, sampled per send
}

// TapDirection distinguishes tap events.
type TapDirection int

// Tap directions.
const (
	TapTx   TapDirection = iota // frame accepted for transmission
	TapRx                       // frame delivered to the handler
	TapDrop                     // frame lost (link down, loss, oversize)
)

// TapFunc observes frames crossing a port (packet tracing). The frame
// is shared — observers must not mutate it.
type TapFunc func(dir TapDirection, frame []byte)

// LossFunc decides, per frame, whether an outgoing frame is lost in
// flight. It runs before the probabilistic loss of SetLoss and lets
// fault injectors script exact drops (the n-th ACK, every frame during
// a window, a Gilbert-Elliott chain). A dropped frame still occupies
// the wire — it is lost, not unsent.
type LossFunc func(frame []byte) bool

// DelayFunc returns extra one-way latency added to a frame's
// propagation (delay jitter). Frames delayed past a later frame's
// arrival are delivered out of order, exactly what a congested or
// flapping fabric does to RoCE.
type DelayFunc func(frame []byte) sim.Time

// NewPort creates an unconnected port. The handler may be set later with
// SetHandler but must be non-nil before any frame arrives.
func NewPort(k *sim.Kernel, name string, h Handler) *Port {
	m := k.Metrics()
	p := &Port{
		name: name, k: k, handler: h, up: true,
		mTxFrames:  m.Counter("simnet.tx_frames"),
		mTxBytes:   m.Counter("simnet.tx_bytes"),
		mRxFrames:  m.Counter("simnet.rx_frames"),
		mRxBytes:   m.Counter("simnet.rx_bytes"),
		mTxDropped: m.Counter("simnet.tx_dropped"),
		mTapEvents: m.Counter("simnet.tap_events"),
		mWireNs:    m.Counter("simnet.wire_busy_ns"),
		mBacklogNs: m.Histogram("simnet.tx_backlog_ns"),
	}
	return p
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Kernel returns the kernel (scheduling domain) the port lives on.
func (p *Port) Kernel() *sim.Kernel { return p.k }

// SetHandler installs the frame receiver.
func (p *Port) SetHandler(h Handler) { p.handler = h }

// Peer returns the port at the other end of the link, or nil.
func (p *Port) Peer() *Port { return p.peer }

// Stats returns a copy of the port's counters.
func (p *Port) Stats() PortStats { return p.stats }

// SetLoss sets the probability (0..1) that an outgoing frame is silently
// dropped after serialization, modelling a lossy fabric.
func (p *Port) SetLoss(prob float64) { p.lossProb = prob }

// SetLossFunc installs (or, with nil, removes) a scripted loss decider,
// consulted before the probabilistic loss of SetLoss.
func (p *Port) SetLossFunc(fn LossFunc) { p.lossFn = fn }

// SetDelayFunc installs (or, with nil, removes) a per-frame jitter
// source.
func (p *Port) SetDelayFunc(fn DelayFunc) { p.delayFn = fn }

// AddTap attaches one more frame observer alongside any existing ones,
// so a packet tracer and a fault injector's drop logger can watch the
// same port. Observers run in attachment order.
func (p *Port) AddTap(tap TapFunc) {
	if tap != nil {
		p.taps = append(p.taps, tap)
	}
}

// SetUp raises or cuts the transmit side of the port. Frames sent while
// the port is down are counted as drops. Cutting both ports of a link
// models unplugging the cable; cutting all ports of a switch models a
// switch crash.
func (p *Port) SetUp(up bool) { p.up = up }

// SetRxDelay sets the latency of the device behind the port: every
// frame sent to it is delivered d after its last bit arrives, with no
// kernel event in between. The receive side is judged at delivery, so
// the port's link state, the Rx stats and the taps all see the frame at
// arrival + d: a frame whose last bit arrives just before the port is
// cut is dropped (a TapDrop, no RxFrames), and one arriving just before
// a down port comes back up is delivered. The delay must be set before
// frames are in flight toward the port; host ports keep zero.
func (p *Port) SetRxDelay(d sim.Time) { p.rxDelay = d }

// Up reports whether the transmit side is enabled.
func (p *Port) Up() bool { return p.up }

// Connect joins two ports with a link described by cfg. Both directions
// share the configuration but serialize independently (full duplex).
func Connect(a, b *Port, cfg LinkConfig) {
	if a.peer != nil || b.peer != nil {
		panic("simnet: port already connected")
	}
	if cfg.BitsPerSecond <= 0 {
		panic("simnet: link bandwidth must be positive")
	}
	a.peer, b.peer = b, a
	a.cfg, b.cfg = cfg, cfg
}

// wireTime returns how long n frame bytes occupy the link.
func (p *Port) wireTime(n int) sim.Time {
	bits := float64(n+p.cfg.FrameOverheadBytes) * 8
	return sim.Time(bits / p.cfg.BitsPerSecond * float64(sim.Second))
}

// Send transmits one frame to the peer port. The frame queues behind any
// frames still serializing. Send never blocks; it returns false if the
// frame was dropped immediately (no peer, link down, oversize, loss).
//
// Send takes ownership of the frame: dropped frames are released to the
// kernel's buffer pool (a no-op for slices that did not come from it),
// and delivered frames become the receiving handler's to release. The
// caller must not touch the slice after Send returns.
func (p *Port) Send(frame []byte) bool { return p.SendAfter(0, frame) }

// SendAfter is Send for a device whose transmit pipeline takes d before
// the frame reaches the port: the frame starts serializing at
// max(the end of the frames queued before it, now + d), with no kernel
// event in between. Every send-side decision is taken at the hand-off
// instant, now: link state, oversize, scripted and probabilistic loss,
// jitter, taps and stats. So a frame handed over while the port is up
// leaves even if the port goes down before now + d, and a frame handed
// over while it is down is dropped even if the port comes back first.
//
// Booking at hand-off equals sending at now + d as long as one port's
// hand-offs arrive in nondecreasing now + d, as they do from a device
// with one constant d.
func (p *Port) SendAfter(d sim.Time, frame []byte) bool {
	if p.peer == nil || !p.up ||
		p.cfg.MaxFrameBytes > 0 && len(frame) > p.cfg.MaxFrameBytes {
		return p.drop(frame)
	}
	from := p.k.Now() + d
	if p.lossFn != nil && p.lossFn(frame) ||
		p.lossProb > 0 && p.k.Rand().Float64() < p.lossProb {
		// The frame still occupies the wire; it is lost in flight.
		p.reserveWire(from, len(frame))
		return p.drop(frame)
	}
	p.mBacklogNs.Observe(int64(p.tx.Backlog(from)))
	doneAt := p.reserveWire(from, len(frame))
	p.stats.TxFrames++
	p.stats.TxBytes += uint64(len(frame))
	p.mTxFrames.Inc()
	p.mTxBytes.Add(uint64(len(frame)))
	p.observe(TapTx, frame)
	var jitter sim.Time
	if p.delayFn != nil {
		jitter = p.delayFn(frame)
	}
	// Hand the frame to the peer's domain with the sender's (time,
	// domain, lane, sequence) key. To another domain it is keyed like
	// any event; to the sender's own (switch to switch) it is keyed in
	// the kernel's arrival lane, after every event the domain has for
	// that instant, which is where a frame from another domain sorts
	// too. Across domains the link's propagation delay is what funds
	// the group's lookahead, so the arrival always clears the window
	// horizon; the peer's receive delay only moves it later.
	// Receive-side bookkeeping runs on the peer's domain (see
	// deliverRemote).
	arriveAt := doneAt + p.cfg.Propagation + jitter + p.peer.rxDelay
	p.k.SendTo(p.peer.k, arriveAt, deliverRemoteFn, p.peer, frame)
	return true
}

// drop counts and releases a frame lost at send time.
func (p *Port) drop(frame []byte) bool {
	p.stats.TxDropped++
	p.mTxDropped.Inc()
	p.observe(TapDrop, frame)
	p.k.Buffers().Put(frame)
	return false
}

// deliverRemoteFn is deliverRemote as a reusable func value, so a send
// does not allocate per frame.
var deliverRemoteFn = deliverRemote

// deliverRemote completes one in-flight frame. It runs on the receiving
// port's domain, whichever domain sent the frame, so every touch —
// stats, taps, the handler, and the buffer pool the frame is released
// into — stays domain-local.
func deliverRemote(a any, frame []byte) { a.(*Port).receive(frame) }

// receive hands a frame whose last bit has arrived to the handler. Only
// a port that is still up receives; a crashed device drops in-flight
// frames addressed to it.
func (p *Port) receive(frame []byte) {
	if !p.up {
		p.observe(TapDrop, frame)
		p.k.Buffers().Put(frame)
		return
	}
	p.stats.RxFrames++
	p.stats.RxBytes += uint64(len(frame))
	p.mRxFrames.Inc()
	p.mRxBytes.Add(uint64(len(frame)))
	p.observe(TapRx, frame)
	p.handler.HandleFrame(p, frame)
}

func (p *Port) observe(dir TapDirection, frame []byte) {
	for _, tap := range p.taps {
		p.mTapEvents.Inc()
		tap(dir, frame)
	}
}

// reserveWire books the transmit serialization slot for n bytes ready
// at from, and returns when the last bit leaves the port.
func (p *Port) reserveWire(from sim.Time, n int) sim.Time {
	wire := p.wireTime(n)
	p.mWireNs.Add(uint64(wire))
	return p.tx.Book(from, wire)
}

// TxBacklog returns how long the transmit queue currently extends past
// the present instant.
func (p *Port) TxBacklog() sim.Time { return p.tx.Backlog(p.k.Now()) }
