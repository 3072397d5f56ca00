package rnic

import (
	"errors"
	"fmt"
	"sort"

	"p4ce/internal/metrics"
	"p4ce/internal/otrace"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// Completion errors delivered to posted-operation callbacks.
var (
	// ErrRemoteAccess reports a NAK for a permission or bounds violation.
	ErrRemoteAccess = errors.New("rnic: remote access error")
	// ErrRetryExceeded reports that retransmission gave up (dead peer or
	// dead path).
	ErrRetryExceeded = errors.New("rnic: transport retry counter exceeded")
	// ErrRNRRetryExceeded reports persistent receiver-not-ready NAKs.
	ErrRNRRetryExceeded = errors.New("rnic: RNR retry counter exceeded")
	// ErrFlushed reports that the queue pair entered the error state
	// before the operation completed.
	ErrFlushed = errors.New("rnic: work request flushed")
	// ErrQPState reports a post against a queue pair that is not ready.
	ErrQPState = errors.New("rnic: queue pair not ready")
	// ErrInvalidRequest reports a malformed post (e.g. oversized).
	ErrInvalidRequest = errors.New("rnic: invalid work request")
)

// Calibrated card constants: the paper's ConnectX-5 testbed. No
// experiment varies them (see DESIGN.md §5).
const (
	// MTUPayload is the RoCE payload carried per packet on a 1500 B
	// Ethernet MTU.
	MTUPayload = 1024
	// AckTimeout is the retransmission timeout. RDMA NICs quantize it to
	// 4.096×2^x µs; the testbed uses x=5 → 131 µs (§V-E).
	AckTimeout = 131 * sim.Microsecond
	// MaxRetries bounds timeout-driven retransmissions before the QP
	// errors out.
	MaxRetries = 7
	// MaxRNRRetries bounds receiver-not-ready retries.
	MaxRNRRetries = 7
	// RNRDelay is how long the requester backs off after an RNR NAK.
	RNRDelay = 10 * sim.Microsecond
	// ProcessingDelay is the fixed NIC pipeline latency added to every
	// packet it emits (request, response or ACK).
	ProcessingDelay = 50 * sim.Nanosecond
)

// Config holds the card's tunables. The defaults mirror the paper's
// ConnectX-5 testbed.
type Config struct {
	// MaxOutstanding caps in-flight (un-acked) requests per queue pair;
	// the paper's setup allows 16 pending writes (§IV-C).
	MaxOutstanding int
	// ResponderSlots is the message buffering capacity advertised through
	// credit counts (at most 31, the 5-bit syndrome limit).
	ResponderSlots int
	// ApplyDelay models how long an inbound message occupies a responder
	// slot before the host consumes it; zero means slots free instantly
	// and credits stay saturated.
	ApplyDelay sim.Time
}

// DefaultConfig returns the testbed card configuration.
func DefaultConfig() Config {
	return Config{
		MaxOutstanding: 16,
		ResponderSlots: 31,
	}
}

// CMHandler receives connection-manager datagrams addressed to this NIC.
type CMHandler func(msg *roce.CMMessage, from simnet.Addr)

// NIC is one simulated RDMA card. It transmits on one access port and
// may hold one spare leg, cabled to a spare switch (a leaf-spine
// fabric's standby, or the plain backup fabric that is the paper's
// "alternative network route"). The fabric's supervisor moves it onto
// that leg when its switch dies (FailoverToSpare); SetPower darkens
// every leg at once.
type NIC struct {
	k       *sim.Kernel
	cfg     Config
	ip      simnet.Addr
	port    *simnet.Port // the leg outbound traffic takes
	spare   *simnet.Port // the other leg, may be nil
	onSpare bool

	qps       map[uint32]*QP
	mrs       map[uint32]*MR
	nextQPN   uint32
	cmHandler CMHandler

	// Hot-path recycling: pooled work requests and a scratch packet the
	// RX path decodes into (receive is synchronous, so one suffices).
	wrFree sim.FreeList[workRequest] // zeroed by putWR
	rxPkt  roce.Packet

	// Stats counts the datapath events, for tests and experiments.
	Stats Stats

	// Metric handles (nil no-ops when the kernel has no registry),
	// shared by every QP on this NIC.
	mTxPackets    *metrics.Counter
	mRxPackets    *metrics.Counter
	mRetransmits  *metrics.Counter
	mRTOFires     *metrics.Counter
	mCreditStalls *metrics.Counter
	mPSNGaps      *metrics.Counter
	mRNRNaks      *metrics.Counter
	// Shard-scoped copies of the recovery counters. Unlike the global
	// series above, these are written only by this NIC's scheduling
	// domain, so the telemetry sampler can read them race-free from the
	// same domain under the partitioned kernel.
	mShardRetransmits *metrics.Counter
	mShardRTOFires    *metrics.Counter

	// Causal tracing (nil no-ops when the kernel has no tracer).
	otr   *otrace.Tracer
	oc    *otrace.Component
	shard int // the /24 block of the NIC's address, keys metrics and traces
}

// Stats are the NIC's datapath counters.
type Stats struct {
	TxPackets, RxPackets uint64
	AcksSent, NaksSent   uint64
	RNRsSent             uint64
	Retransmits          uint64
	DroppedUnknownQP     uint64
	DroppedBadFrame      uint64
}

// New creates a NIC with address ip on kernel k. Ports are attached
// afterwards with AttachPort/AttachSpare.
func New(k *sim.Kernel, cfg Config, ip simnet.Addr) *NIC {
	if cfg.MaxOutstanding <= 0 {
		panic("rnic: invalid config")
	}
	if cfg.ResponderSlots > 31 {
		cfg.ResponderSlots = 31 // 5-bit credit field
	}
	m := k.Metrics()
	n := &NIC{
		k:       k,
		cfg:     cfg,
		ip:      ip,
		qps:     make(map[uint32]*QP),
		mrs:     make(map[uint32]*MR),
		nextQPN: 16, // skip the management QPs

		mTxPackets:    m.Counter("rnic.tx_packets"),
		mRxPackets:    m.Counter("rnic.rx_packets"),
		mRetransmits:  m.Counter("rnic.retransmits"),
		mRTOFires:     m.Counter("rnic.rto_fires"),
		mCreditStalls: m.Counter("rnic.credit_stalls"),
		mPSNGaps:      m.Counter("rnic.psn_gaps"),
		mRNRNaks:      m.Counter("rnic.rnr_naks"),
	}
	// The third address octet is the shard's /24 block (10.0.<shard>.0),
	// which scopes this NIC's trace component to its consensus group.
	_, _, shard, _ := ip.Octets()
	n.shard = int(shard)
	shardScope := m.Scope(fmt.Sprintf("rnic.shard%d", shard))
	n.mShardRetransmits = shardScope.Counter("retransmits")
	n.mShardRTOFires = shardScope.Counter("rto_fires")
	n.otr = k.Tracer()
	n.oc = n.otr.ComponentAt(fmt.Sprintf("s%d/rnic/%v", shard, ip), int(shard),
		func() int64 { return int64(k.Now()) })
	return n
}

// putWR recycles a work request that left the send queues. Clearing the
// fields drops payload and callback references so they do not outlive
// the request.
func (n *NIC) putWR(wr *workRequest) {
	if wr.dataPooled {
		n.k.Buffers().Put(wr.data)
	}
	*wr = workRequest{}
	n.wrFree.Put(wr)
}

// captureData snapshots a caller's write/send payload into a pooled
// buffer owned by the work request (released by putWR). The simulator
// departs from verbs zero-copy semantics here on purpose: consumers
// recycle their encoding buffers aggressively, and a snapshot at post
// time keeps retransmissions reading stable bytes without tracking
// caller-buffer lifetimes against outstanding requests.
func (n *NIC) captureData(data []byte) ([]byte, bool) {
	if len(data) == 0 {
		return nil, false
	}
	return n.k.Buffers().Clone(data), true
}

// IP returns the NIC's address.
func (n *NIC) IP() simnet.Addr { return n.ip }

// Kernel returns the simulation kernel the NIC runs on.
func (n *NIC) Kernel() *sim.Kernel { return n.k }

// Shard returns the consensus group the NIC belongs to: the third
// octet of its address (10.0.<shard>.x), the cluster's address plan.
func (n *NIC) Shard() int { return n.shard }

// AttachPort wires the primary network port. The NIC installs itself as
// the port's frame handler.
func (n *NIC) AttachPort(p *simnet.Port) {
	n.port = p
	p.SetHandler(simnet.HandlerFunc(n.receiveOn))
}

// AttachSpare wires the spare leg. Frames arriving on it are received
// even before failover; nothing is sent on it until FailoverToSpare.
func (n *NIC) AttachSpare(p *simnet.Port) {
	n.spare = p
	p.SetHandler(simnet.HandlerFunc(n.receiveOn))
}

// receiveOn is every leg's frame handler.
func (n *NIC) receiveOn(_ *simnet.Port, frame []byte) { n.receive(frame) }

// FailoverToSpare makes the spare leg the one outbound traffic takes.
// The fabric's supervisor invokes it once the spare switch routes the
// host; it is idempotent and a no-op when no spare leg is cabled.
func (n *NIC) FailoverToSpare() {
	if n.spare != nil && !n.onSpare {
		n.port, n.spare = n.spare, n.port
		n.onSpare = true
	}
}

// OnSpare reports whether the NIC moved onto its spare leg.
func (n *NIC) OnSpare() bool { return n.onSpare }

// SetPower switches every leg on or off at once: while off, nothing
// leaves the card and nothing reaches it. Queue-pair state is untouched
// (see Reset).
func (n *NIC) SetPower(on bool) {
	for _, p := range []*simnet.Port{n.port, n.spare} {
		if p != nil {
			p.SetUp(on)
		}
	}
}

// SetCMHandler installs the receiver for connection-manager datagrams.
func (n *NIC) SetCMHandler(h CMHandler) { n.cmHandler = h }

// transmit encodes and sends a packet after the NIC pipeline delay. The
// packet struct is consumed synchronously (marshaled into a pooled
// frame), so callers may pass a scratch packet they reuse immediately.
// The pipeline is booked on the port at hand-off (Port.SendAfter) rather
// than run as a kernel event: only this NIC sends on its ports, with one
// constant delay, so its frames reach each wire in call order.
func (n *NIC) transmit(p *roce.Packet) {
	n.Stats.TxPackets++
	n.mTxPackets.Inc()
	if n.port == nil {
		return
	}
	frame := n.k.Buffers().GetUnzeroed(p.WireSize()) // MarshalInto writes every byte
	p.MarshalInto(frame)
	n.port.SendAfter(ProcessingDelay, frame)
}

// SendCM emits a connection-manager datagram. CM traffic is unreliable;
// the handshake layer is responsible for retries.
func (n *NIC) SendCM(dst simnet.Addr, msg *roce.CMMessage) error {
	payload, err := msg.MarshalCM()
	if err != nil {
		return fmt.Errorf("send CM: %w", err)
	}
	n.transmit(&roce.Packet{
		SrcIP:   n.ip,
		DstIP:   dst,
		SrcPort: 49152,
		OpCode:  roce.OpSendOnly,
		DestQP:  roce.CMQPN,
		Payload: payload,
	})
	return nil
}

// receive is the RX datapath entry point. The frame is decoded into the
// NIC's scratch packet — the payload aliases the frame — processed
// synchronously, and the frame is recycled before returning, so QP
// handlers (and onRecv consumers) must copy any payload bytes they
// retain.
func (n *NIC) receive(frame []byte) {
	p := &n.rxPkt
	err := roce.UnmarshalInto(frame, p)
	n.handleDecoded(p, err)
	p.Payload = nil // drop the alias before the frame is recycled
	n.k.Buffers().Put(frame)
}

func (n *NIC) handleDecoded(p *roce.Packet, err error) {
	if err != nil {
		n.Stats.DroppedBadFrame++
		return
	}
	if p.DstIP != n.ip {
		n.Stats.DroppedBadFrame++
		return
	}
	n.Stats.RxPackets++
	n.mRxPackets.Inc()
	if p.DestQP == roce.CMQPN {
		if n.cmHandler == nil {
			return
		}
		msg, err := roce.UnmarshalCM(p.Payload)
		if err != nil {
			n.Stats.DroppedBadFrame++
			return
		}
		n.cmHandler(msg, p.SrcIP)
		return
	}
	qp, ok := n.qps[p.DestQP]
	if !ok || qp.state == StateReset {
		n.Stats.DroppedUnknownQP++
		return
	}
	qp.handlePacket(p)
}

// CreateQP allocates a queue pair in the RESET state.
func (n *NIC) CreateQP() *QP {
	qpn := n.nextQPN
	n.nextQPN++
	qp := &QP{
		nic:     n,
		num:     qpn,
		state:   StateReset,
		credits: n.cfg.MaxOutstanding,
	}
	// Bind the timer and slot callbacks once, so the per-ACK re-arm and
	// per-message slot release never allocate.
	qp.timeoutFn = qp.onTimeout
	qp.rnrFn = qp.onRNRExpire
	qp.slotFreeFn = func() { qp.freeSlots++ }
	n.qps[qpn] = qp
	return qp
}

// DestroyQP removes the queue pair and flushes its outstanding work.
func (n *NIC) DestroyQP(qp *QP) {
	qp.enterError(ErrFlushed)
	delete(n.qps, qp.num)
}

// Reset models a card-level fault (firmware reset, driver restart,
// PCIe function-level reset): every queue pair is torn down at once,
// flushing its outstanding work with ErrFlushed so the layers above see
// the same completions a real async-event storm produces. Memory
// registrations survive — the registered buffers live in host memory
// and only a host reboot would lose them. QPs are flushed in ascending
// QPN order so a reset is deterministic under the simulation seed.
func (n *NIC) Reset() {
	old := n.qps
	n.qps = make(map[uint32]*QP)
	qpns := make([]uint32, 0, len(old))
	for qpn := range old {
		qpns = append(qpns, qpn)
	}
	sort.Slice(qpns, func(i, j int) bool { return qpns[i] < qpns[j] })
	for _, qpn := range qpns {
		old[qpn].enterError(ErrFlushed)
	}
}

// QPCount returns how many queue pairs exist (tests).
func (n *NIC) QPCount() int { return len(n.qps) }

// FindQPByRemote returns the queue pair connected to the given remote
// endpoint, if any (the CM uses it to resolve disconnects).
func (n *NIC) FindQPByRemote(ip simnet.Addr, qpn uint32) (*QP, bool) {
	for _, qp := range n.qps {
		if qp.state == StateReady && qp.remoteIP == ip && qp.remoteQPN == qpn {
			return qp, true
		}
	}
	return nil, false
}
