package rnic

import (
	"p4ce/internal/otrace"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// State is the queue pair lifecycle state (collapsed INIT/RTR/RTS).
type State int

// Queue pair states.
const (
	StateReset State = iota
	StateReady
	StateError
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateReset:
		return "RESET"
	case StateReady:
		return "READY"
	case StateError:
		return "ERROR"
	default:
		return "UNKNOWN"
	}
}

// wrType distinguishes posted operations.
type wrType int

const (
	wrWrite wrType = iota
	wrRead
	wrSend
)

// workRequest is one posted operation moving through the send pipeline.
// Requests are pooled per NIC (see NIC.wrFree/putWR) and recycled once
// they leave the send queues.
type workRequest struct {
	typ wrType
	// data holds the payload for writes/sends. It is a pooled snapshot
	// of the caller's buffer, taken at post time: retransmissions read
	// from it long after the post returns, and snapshotting frees the
	// caller to reuse (or recycle) its own buffer immediately.
	data       []byte
	dataPooled bool   // data came from the kernel buffer pool
	dst        []byte // destination buffer for reads (caller-owned)
	remoteVA   uint64
	rkey       uint32
	done       func(error)

	firstPSN  uint32 // assigned when the request starts transmitting
	lastPSN   uint32
	completed bool
	// trace carries the originating operation's causal trace ID (zero
	// when untraced); putWR's struct reset clears it with the rest.
	trace otrace.ID
}

// wrQueue is a FIFO of work requests backed by a reusable array: popped
// slots are reclaimed once the queue drains (and the head shifts down
// when it grows past the live window), so a steady post/complete cycle
// never reallocates the backing store the way re-slicing with [1:] does.
type wrQueue struct {
	items []*workRequest
	head  int
}

// Len returns the number of queued requests.
func (q *wrQueue) Len() int { return len(q.items) - q.head }

// Push appends a request.
func (q *wrQueue) Push(wr *workRequest) {
	if q.head > 0 && q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, wr)
}

// Front returns the oldest request without removing it.
func (q *wrQueue) Front() *workRequest { return q.items[q.head] }

// At returns the i-th oldest request.
func (q *wrQueue) At(i int) *workRequest { return q.items[q.head+i] }

// PopFront removes and returns the oldest request.
func (q *wrQueue) PopFront() *workRequest {
	wr := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return wr
}

func (wr *workRequest) complete(err error) {
	if wr.completed {
		return
	}
	wr.completed = true
	if wr.done != nil {
		wr.done(err)
	}
}

// psnSpan returns how many PSNs the request consumes (writes consume one
// per segment; reads consume one per response packet).
func (wr *workRequest) psnSpan(mtu int) int {
	switch wr.typ {
	case wrWrite:
		return roce.SegmentCount(len(wr.data), mtu)
	case wrRead:
		return roce.SegmentCount(len(wr.dst), mtu)
	default:
		return 1
	}
}

// QP is a reliable-connection queue pair. It contains both the requester
// machinery (send window, retransmission) and the responder machinery
// (expected PSN, slot accounting, ACK generation), exactly like the two
// halves of a hardware QP context.
type QP struct {
	nic   *NIC
	num   uint32
	state State

	remoteIP  simnet.Addr
	remoteQPN uint32

	// Requester side.
	sndPSN   uint32 // next PSN to assign
	pending  wrQueue
	inflight wrQueue
	credits  int // last credit count advertised by the responder
	retries  int
	rtTimer  sim.Timer
	rnrCount int       // consecutive RNR rounds without forward progress
	rnrTimer sim.Timer // pending RNR backoff, at most one at a time

	// Persistent callbacks, bound once in CreateQP so (re)arming the
	// retransmission or RNR timer and releasing responder slots do not
	// allocate a closure per event.
	timeoutFn  func()
	rnrFn      func()
	slotFreeFn func()
	// txPkt is the scratch packet the QP marshals outgoing traffic from;
	// NIC.transmit consumes it synchronously, so one per QP suffices.
	txPkt roce.Packet

	// Responder side.
	expPSN    uint32
	msn       uint32
	freeSlots int
	nakArmed  bool // a sequence NAK was already sent for the current gap
	// In-progress multi-packet inbound write.
	curMR        *MR
	curVA        uint64
	curRemaining int

	// onError is invoked once when the QP transitions to ERROR
	// asynchronously (timeout, fatal NAK).
	onError func(error)
	// onRecv receives SEND payloads (two-sided traffic).
	onRecv func(payload []byte)
}

// Num returns the queue pair number.
func (qp *QP) Num() uint32 { return qp.num }

// State returns the lifecycle state.
func (qp *QP) State() State { return qp.state }

// RemoteIP returns the connected peer address.
func (qp *QP) RemoteIP() simnet.Addr { return qp.remoteIP }

// NextPSN returns the next send PSN (diagnostics and the switch control
// plane, which needs it when splicing connections).
func (qp *QP) NextPSN() uint32 { return qp.sndPSN }

// Credits returns the requester's view of the responder's capacity.
func (qp *QP) Credits() int { return qp.credits }

// SetOnError installs the asynchronous failure callback.
func (qp *QP) SetOnError(fn func(error)) { qp.onError = fn }

// SetOnRecv installs the SEND consumer.
func (qp *QP) SetOnRecv(fn func(payload []byte)) { qp.onRecv = fn }

// Connect moves the queue pair to READY, binding it to the remote
// endpoint. localPSN seeds this side's send sequence; remotePSN is the
// first PSN expected from the peer (both negotiated during the CM
// handshake).
func (qp *QP) Connect(remoteIP simnet.Addr, remoteQPN, localPSN, remotePSN uint32) {
	qp.remoteIP = remoteIP
	qp.remoteQPN = remoteQPN
	qp.sndPSN = localPSN & roce.PSNMask
	qp.expPSN = remotePSN & roce.PSNMask
	qp.freeSlots = qp.nic.cfg.ResponderSlots
	qp.credits = qp.nic.cfg.MaxOutstanding
	qp.state = StateReady
}

// PostWrite posts a one-sided RDMA write of data to the remote virtual
// address. done is invoked with nil once the write is acknowledged, or
// with an error if it fails.
func (qp *QP) PostWrite(data []byte, remoteVA uint64, rkey uint32, done func(error)) error {
	return qp.PostWriteTraced(data, remoteVA, rkey, 0, done)
}

// PostWriteTraced is PostWrite carrying a causal trace ID: the request
// marks the posted boundary when its PSNs are assigned and annotates
// them so downstream layers can recover the trace from the wire. A
// zero trace (or disabled tracing) makes it identical to PostWrite.
func (qp *QP) PostWriteTraced(data []byte, remoteVA uint64, rkey uint32, trace otrace.ID, done func(error)) error {
	if qp.state != StateReady {
		return ErrQPState
	}
	wr := qp.nic.wrFree.Get()
	wr.typ, wr.remoteVA, wr.rkey, wr.done = wrWrite, remoteVA, rkey, done
	wr.trace = trace
	wr.data, wr.dataPooled = qp.nic.captureData(data)
	return qp.post(wr)
}

// PostRead posts a one-sided RDMA read of len(dst) bytes from the remote
// virtual address into dst.
func (qp *QP) PostRead(dst []byte, remoteVA uint64, rkey uint32, done func(error)) error {
	if len(dst) == 0 {
		return ErrInvalidRequest
	}
	if qp.state != StateReady {
		return ErrQPState
	}
	wr := qp.nic.wrFree.Get()
	wr.typ, wr.dst, wr.remoteVA, wr.rkey, wr.done = wrRead, dst, remoteVA, rkey, done
	return qp.post(wr)
}

// PostSend posts a two-sided SEND carrying payload.
func (qp *QP) PostSend(payload []byte, done func(error)) error {
	if len(payload) > MTUPayload {
		return ErrInvalidRequest
	}
	if qp.state != StateReady {
		return ErrQPState
	}
	wr := qp.nic.wrFree.Get()
	wr.typ, wr.done = wrSend, done
	wr.data, wr.dataPooled = qp.nic.captureData(payload)
	return qp.post(wr)
}

func (qp *QP) post(wr *workRequest) error {
	qp.pending.Push(wr)
	qp.pump()
	return nil
}

// OutstandingRequests returns the number of un-acked requests.
func (qp *QP) OutstandingRequests() int { return qp.inflight.Len() }

// QueuedRequests returns the number of posted-but-untransmitted requests.
func (qp *QP) QueuedRequests() int { return qp.pending.Len() }

// setCredits interprets the 5-bit AETH credit field: the all-ones value
// means "no flow-control limit" (the IB spec's invalid-credit encoding),
// which saturated responders advertise; anything else is a hard bound.
func (qp *QP) setCredits(v uint8) {
	if v >= 31 {
		qp.credits = qp.nic.cfg.MaxOutstanding
		return
	}
	qp.credits = int(v)
}

// windowLimit is how many requests may be in flight right now: the QP's
// hardware window bounded by the responder's advertised credits. A floor
// of one lets a single probe go out when credits hit zero so the
// responder's RNR NAK (and eventual ACK) can restart the flow.
func (qp *QP) windowLimit() int {
	lim := qp.nic.cfg.MaxOutstanding
	if qp.credits < lim {
		lim = qp.credits
	}
	if lim < 1 {
		lim = 1
	}
	return lim
}

// pump transmits pending requests while the window allows.
func (qp *QP) pump() {
	if qp.pending.Len() > 0 && qp.inflight.Len() >= qp.windowLimit() &&
		qp.credits < qp.nic.cfg.MaxOutstanding {
		// Work is queued and the window is closed specifically because
		// the responder's advertised credits shrank it.
		qp.nic.mCreditStalls.Inc()
	}
	for qp.pending.Len() > 0 && qp.inflight.Len() < qp.windowLimit() {
		wr := qp.pending.PopFront()
		span := wr.psnSpan(MTUPayload)
		wr.firstPSN = qp.sndPSN
		wr.lastPSN = roce.PSNAdd(qp.sndPSN, span-1)
		qp.sndPSN = roce.PSNAdd(qp.sndPSN, span)
		if wr.trace != 0 {
			// B1: the WQE reached the wire pipeline. The PSN range is
			// keyed under the destination QP, which is what the switch
			// (or the replica, in direct mode) sees inbound.
			qp.nic.otr.Mark(qp.nic.oc, wr.trace, otrace.MarkPosted)
			qp.nic.otr.Annotate(wr.trace, qp.remoteQPN, wr.firstPSN, span)
		}
		qp.inflight.Push(wr)
		qp.transmitWR(wr)
	}
	qp.armTimer()
}

// transmitWR emits every packet of a request. Packets are staged in the
// QP's scratch txPkt: NIC.transmit marshals synchronously and never
// retains the struct.
func (qp *QP) transmitWR(wr *workRequest) {
	switch wr.typ {
	case wrWrite:
		n := roce.SegmentCount(len(wr.data), MTUPayload)
		for i := 0; i < n; i++ {
			seg := roce.WriteSegmentAt(len(wr.data), MTUPayload, wr.firstPSN, i, n)
			qp.txPkt = roce.Packet{
				SrcIP: qp.nic.ip, DstIP: qp.remoteIP, SrcPort: 49152,
				OpCode: seg.OpCode, DestQP: qp.remoteQPN, PSN: seg.PSN,
				AckReq:  i == n-1,
				Payload: wr.data[seg.Offset : seg.Offset+seg.Length],
			}
			if seg.OpCode.HasRETH() {
				qp.txPkt.VA = wr.remoteVA
				qp.txPkt.RKey = wr.rkey
				qp.txPkt.DMALen = uint32(len(wr.data))
			}
			qp.nic.transmit(&qp.txPkt)
		}
	case wrRead:
		qp.txPkt = roce.Packet{
			SrcIP: qp.nic.ip, DstIP: qp.remoteIP, SrcPort: 49152,
			OpCode: roce.OpReadRequest, DestQP: qp.remoteQPN, PSN: wr.firstPSN,
			VA: wr.remoteVA, RKey: wr.rkey, DMALen: uint32(len(wr.dst)),
		}
		qp.nic.transmit(&qp.txPkt)
	case wrSend:
		qp.txPkt = roce.Packet{
			SrcIP: qp.nic.ip, DstIP: qp.remoteIP, SrcPort: 49152,
			OpCode: roce.OpSendOnly, DestQP: qp.remoteQPN, PSN: wr.firstPSN,
			AckReq: true, Payload: wr.data,
		}
		qp.nic.transmit(&qp.txPkt)
	}
}

// armTimer (re)starts the retransmission timer while work is in flight.
// This runs on every ACK; the kernel's pooled events and cancel
// compaction keep the stop/re-arm churn from growing the heap.
func (qp *QP) armTimer() {
	qp.rtTimer.Stop()
	if qp.inflight.Len() == 0 || qp.state != StateReady {
		return
	}
	// Consecutive unproductive timeouts back the timer off exponentially
	// (capped at 8x): go-back-N re-injects the whole window, and firing
	// again before the duplicates drain would melt the link down.
	scale := sim.Time(1) << uint(qp.retries)
	if scale > 8 {
		scale = 8
	}
	qp.rtTimer = qp.nic.k.Schedule(AckTimeout*scale, qp.timeoutFn)
}

func (qp *QP) onTimeout() {
	if qp.state != StateReady || qp.inflight.Len() == 0 {
		return
	}
	qp.retries++
	if qp.retries > MaxRetries {
		qp.enterError(ErrRetryExceeded)
		return
	}
	qp.nic.Stats.Retransmits++
	qp.nic.mRTOFires.Inc()
	qp.nic.mRetransmits.Inc()
	qp.nic.mShardRTOFires.Inc()
	qp.nic.mShardRetransmits.Inc()
	for i := 0; i < qp.inflight.Len(); i++ { // go-back-N
		qp.transmitWR(qp.inflight.At(i))
	}
	qp.armTimer()
}

// enterError moves the QP to ERROR, flushing all queued work.
func (qp *QP) enterError(cause error) {
	if qp.state == StateError {
		return
	}
	qp.state = StateError
	qp.rtTimer.Stop()
	for qp.inflight.Len() > 0 {
		wr := qp.inflight.PopFront()
		wr.complete(cause)
		qp.nic.putWR(wr)
	}
	for qp.pending.Len() > 0 {
		wr := qp.pending.PopFront()
		wr.complete(cause)
		qp.nic.putWR(wr)
	}
	if qp.onError != nil {
		qp.onError(cause)
	}
}

// handlePacket dispatches an inbound packet to the requester or
// responder half.
func (qp *QP) handlePacket(p *roce.Packet) {
	if qp.state != StateReady {
		return
	}
	switch {
	case p.OpCode == roce.OpAcknowledge:
		qp.handleAck(p)
	case p.OpCode.IsReadResponse():
		qp.handleReadResponse(p)
	case p.OpCode.IsWrite():
		qp.handleInboundWrite(p)
	case p.OpCode == roce.OpReadRequest:
		qp.handleInboundRead(p)
	case p.OpCode == roce.OpSendOnly:
		qp.handleInboundSend(p)
	}
}

// ---- Requester half ----

func (qp *QP) handleAck(p *roce.Packet) {
	switch p.Syndrome.Type() {
	case roce.AckPositive:
		qp.setCredits(p.Syndrome.Value())
		qp.completeThrough(p.PSN)
		qp.retries = 0
		qp.rnrCount = 0 // forward progress clears the RNR budget
		qp.armTimer()
		qp.pump()
	case roce.AckRNR:
		qp.handleRNR()
	case roce.AckNAK:
		qp.handleNAK(p)
	}
}

// completeThrough finishes every in-flight request whose last PSN is at
// or before psn (ACKs are cumulative).
func (qp *QP) completeThrough(psn uint32) {
	for qp.inflight.Len() > 0 {
		wr := qp.inflight.Front()
		if roce.PSNDiff(wr.lastPSN, psn) > 0 {
			break
		}
		if wr.typ == wrRead && !wr.completed {
			// A bare ACK cannot complete a read; responses do that.
			break
		}
		qp.inflight.PopFront()
		if wr.trace != 0 {
			// B5: the (aggregated) acknowledgment completed the WQE.
			qp.nic.otr.Mark(qp.nic.oc, wr.trace, otrace.MarkAckRx)
		}
		wr.complete(nil)
		qp.nic.putWR(wr)
	}
	// Drop reads that were completed by their response packets but kept
	// in line for ordering.
	for qp.inflight.Len() > 0 && qp.inflight.Front().completed {
		qp.nic.putWR(qp.inflight.PopFront())
	}
}

func (qp *QP) handleRNR() {
	if qp.inflight.Len() == 0 || qp.rnrTimer.Active() {
		// A backoff round is already pending; a burst of writes draws one
		// RNR NAK per rejected message but only one retry round.
		return
	}
	qp.rnrCount++
	if qp.rnrCount > MaxRNRRetries {
		qp.enterError(ErrRNRRetryExceeded)
		return
	}
	qp.rnrTimer = qp.nic.k.Schedule(RNRDelay, qp.rnrFn)
}

// onRNRExpire retransmits the window after the RNR backoff.
func (qp *QP) onRNRExpire() {
	if qp.state != StateReady {
		return
	}
	for i := 0; i < qp.inflight.Len(); i++ {
		qp.transmitWR(qp.inflight.At(i))
	}
	qp.armTimer()
}

func (qp *QP) handleNAK(p *roce.Packet) {
	switch p.Syndrome.Value() {
	case roce.NakPSNSequenceError:
		// Retransmit everything from the NAKed PSN (go-back-N).
		qp.nic.Stats.Retransmits++
		qp.nic.mRetransmits.Inc()
		qp.nic.mShardRetransmits.Inc()
		for i := 0; i < qp.inflight.Len(); i++ {
			wr := qp.inflight.At(i)
			if roce.PSNDiff(wr.lastPSN, p.PSN) >= 0 {
				qp.transmitWR(wr)
			}
		}
		qp.armTimer()
	default:
		// Access/operation errors are fatal to the connection, which is
		// precisely the fencing mechanism Mu's permission switch relies on.
		qp.enterError(ErrRemoteAccess)
	}
}

func (qp *QP) handleReadResponse(p *roce.Packet) {
	var wr *workRequest
	for i := 0; i < qp.inflight.Len(); i++ {
		cand := qp.inflight.At(i)
		if cand.typ == wrRead && roce.PSNInWindow(p.PSN, cand.firstPSN, cand.psnSpan(MTUPayload)) {
			wr = cand
			break
		}
	}
	if wr == nil {
		return // stale or duplicate response
	}
	off := roce.PSNDiff(p.PSN, wr.firstPSN) * MTUPayload
	copy(wr.dst[off:], p.Payload)
	if p.OpCode.HasAETH() {
		qp.setCredits(p.Syndrome.Value())
	}
	if p.OpCode.EndsMessage() {
		// Snapshot the PSN span: completeThrough may pop and recycle wr.
		firstPSN, lastPSN := wr.firstPSN, wr.lastPSN
		// The response implicitly acknowledges everything before it.
		wr.complete(nil)
		qp.completeThrough(lastPSN)
		// Implicit NAK: a response for a later read while an earlier one
		// is still incomplete means that earlier response was lost — the
		// timer alone would starve it, since every later completion
		// resets it. Retransmit the skipped request now.
		if qp.inflight.Len() > 0 {
			head := qp.inflight.Front()
			if head.lastPSN != lastPSN && !head.completed && head.typ == wrRead &&
				roce.PSNDiff(head.lastPSN, firstPSN) < 0 {
				qp.transmitWR(head)
			}
		}
		qp.retries = 0
		qp.armTimer()
		qp.pump()
	}
}

// ---- Responder half ----

func (qp *QP) advertisedCredits() uint8 {
	c := qp.freeSlots
	if c > 31 {
		c = 31
	}
	if c < 0 {
		c = 0
	}
	return uint8(c)
}

func (qp *QP) sendAck(psn uint32) {
	qp.nic.Stats.AcksSent++
	qp.txPkt = roce.Packet{
		SrcIP: qp.nic.ip, DstIP: qp.remoteIP, SrcPort: roce.UDPPort,
		OpCode: roce.OpAcknowledge, DestQP: qp.remoteQPN, PSN: psn,
		Syndrome: roce.MakeSyndrome(roce.AckPositive, qp.advertisedCredits()),
		MSN:      qp.msn,
	}
	qp.nic.transmit(&qp.txPkt)
}

func (qp *QP) sendNak(psn uint32, code uint8) {
	qp.nic.Stats.NaksSent++
	qp.txPkt = roce.Packet{
		SrcIP: qp.nic.ip, DstIP: qp.remoteIP, SrcPort: roce.UDPPort,
		OpCode: roce.OpAcknowledge, DestQP: qp.remoteQPN, PSN: psn,
		Syndrome: roce.MakeSyndrome(roce.AckNAK, code),
		MSN:      qp.msn,
	}
	qp.nic.transmit(&qp.txPkt)
}

func (qp *QP) sendRNR(psn uint32) {
	qp.nic.Stats.RNRsSent++
	qp.nic.mRNRNaks.Inc()
	qp.txPkt = roce.Packet{
		SrcIP: qp.nic.ip, DstIP: qp.remoteIP, SrcPort: roce.UDPPort,
		OpCode: roce.OpAcknowledge, DestQP: qp.remoteQPN, PSN: psn,
		Syndrome: roce.MakeSyndrome(roce.AckRNR, 1),
		MSN:      qp.msn,
	}
	qp.nic.transmit(&qp.txPkt)
}

// checkSequence validates the inbound PSN. It returns false (after
// responding appropriately) when the packet must not be executed.
func (qp *QP) checkSequence(p *roce.Packet) bool {
	d := roce.PSNDiff(p.PSN, qp.expPSN)
	switch {
	case d == 0:
		qp.nakArmed = false
		return true
	case d < 0:
		// Duplicate from a go-back-N retransmission: re-acknowledge the
		// most recent in-sequence packet so the requester makes progress.
		if p.AckReq || p.OpCode.EndsMessage() {
			qp.sendAck(roce.PSNAdd(qp.expPSN, -1))
		}
		return false
	default:
		// One NAK per gap: real responders suppress repeats until the
		// missing packet arrives, avoiding NAK storms on long messages.
		if !qp.nakArmed {
			qp.nakArmed = true
			qp.nic.mPSNGaps.Inc()
			qp.sendNak(qp.expPSN, roce.NakPSNSequenceError)
		}
		return false
	}
}

func (qp *QP) handleInboundWrite(p *roce.Packet) {
	if !qp.checkSequence(p) {
		return
	}
	starts := p.OpCode == roce.OpWriteFirst || p.OpCode == roce.OpWriteOnly
	if starts {
		mr, ok := qp.nic.lookupMR(p.RKey)
		if !ok || !mr.checkWrite(p.SrcIP, p.VA, int(p.DMALen)) {
			qp.sendNak(p.PSN, roce.NakRemoteAccessError)
			return
		}
		if qp.freeSlots <= 0 {
			qp.sendRNR(p.PSN)
			return
		}
		qp.consumeSlot()
		qp.curMR = mr
		qp.curVA = p.VA
		qp.curRemaining = int(p.DMALen)
	}
	if qp.curMR == nil {
		qp.sendNak(p.PSN, roce.NakInvalidRequest)
		return
	}
	if qp.nic.otr != nil {
		// B2 fallback (first-wins): a replica accepted the write. In
		// switch mode the egress rewrite re-annotated the per-replica
		// (QP, PSN); in direct mode this is the leader's own annotation.
		qp.nic.otr.Mark(qp.nic.oc, qp.nic.otr.Lookup(qp.nic.shard, qp.num, p.PSN), otrace.MarkReplicaRx)
	}
	qp.curMR.write(qp.curVA, p.Payload)
	qp.curVA += uint64(len(p.Payload))
	qp.curRemaining -= len(p.Payload)
	qp.expPSN = roce.PSNNext(qp.expPSN)
	if p.OpCode.EndsMessage() {
		qp.msn = (qp.msn + 1) & roce.PSNMask
		qp.curMR = nil
	}
	if p.AckReq || p.OpCode.EndsMessage() {
		qp.sendAck(p.PSN)
	}
}

func (qp *QP) handleInboundRead(p *roce.Packet) {
	// Duplicate read requests are re-executed from current memory (the
	// IB spec's rule): when a read response is lost, the requester's
	// retransmitted request must produce a fresh response rather than a
	// bare ACK.
	d := roce.PSNDiff(p.PSN, qp.expPSN)
	if d > 0 {
		if !qp.nakArmed {
			qp.nakArmed = true
			qp.nic.mPSNGaps.Inc()
			qp.sendNak(qp.expPSN, roce.NakPSNSequenceError)
		}
		return
	}
	qp.nakArmed = false
	mr, ok := qp.nic.lookupMR(p.RKey)
	if !ok || !mr.checkRead(p.VA, int(p.DMALen)) {
		qp.sendNak(p.PSN, roce.NakRemoteAccessError)
		return
	}
	data := mr.read(p.VA, int(p.DMALen))
	n := roce.SegmentCount(len(data), MTUPayload)
	if d == 0 {
		qp.expPSN = roce.PSNAdd(p.PSN, n)
		qp.msn = (qp.msn + 1) & roce.PSNMask
	}
	for i := 0; i < n; i++ {
		seg := roce.ReadRespSegmentAt(len(data), MTUPayload, p.PSN, i, n)
		qp.txPkt = roce.Packet{
			SrcIP: qp.nic.ip, DstIP: qp.remoteIP, SrcPort: roce.UDPPort,
			OpCode: seg.OpCode, DestQP: qp.remoteQPN, PSN: seg.PSN,
			Payload: data[seg.Offset : seg.Offset+seg.Length],
		}
		if seg.OpCode.HasAETH() {
			qp.txPkt.Syndrome = roce.MakeSyndrome(roce.AckPositive, qp.advertisedCredits())
			qp.txPkt.MSN = qp.msn
		}
		qp.nic.transmit(&qp.txPkt)
	}
}

func (qp *QP) handleInboundSend(p *roce.Packet) {
	if !qp.checkSequence(p) {
		return
	}
	if qp.freeSlots <= 0 {
		qp.sendRNR(p.PSN)
		return
	}
	qp.consumeSlot()
	qp.expPSN = roce.PSNNext(qp.expPSN)
	qp.msn = (qp.msn + 1) & roce.PSNMask
	if qp.onRecv != nil {
		qp.onRecv(p.Payload)
	}
	qp.sendAck(p.PSN)
}

// consumeSlot takes one responder slot and schedules its release after
// the apply delay (immediately when the delay is zero, modelling a host
// that drains its ring as fast as the NIC fills it).
func (qp *QP) consumeSlot() {
	if qp.nic.cfg.ApplyDelay <= 0 {
		return
	}
	qp.freeSlots--
	qp.nic.k.Schedule(qp.nic.cfg.ApplyDelay, qp.slotFreeFn)
}
