package cm

import (
	"errors"
	"fmt"
	"slices"

	"p4ce/internal/rnic"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// Handshake errors.
var (
	// ErrRejected reports that the passive side refused the connection.
	ErrRejected = errors.New("cm: connection rejected")
	// ErrTimeout reports that the handshake ran out of retries.
	ErrTimeout = errors.New("cm: handshake timed out")
)

// Conn is an established RDMA connection as seen by the active (client)
// side: a ready queue pair plus whatever memory region and private data
// the passive side advertised in its ConnectReply.
type Conn struct {
	QP           *rnic.QP
	Peer         simnet.Addr
	RemoteVA     uint64
	RemoteRKey   uint32
	RemoteBufLen uint32
	PrivateData  []byte
}

// Accept is the passive side's answer to an incoming ConnectRequest.
type Accept struct {
	// MR, if set, advertises the region's base address, R_key and length
	// in the ConnectReply, the way Mu replicas expose their logs.
	MR *rnic.MR
	// PrivateData rides in the reply (at most roce.MaxPrivateData bytes).
	PrivateData []byte
	// OnEstablished fires when the ReadyToUse arrives.
	OnEstablished func(qp *rnic.QP)
}

// AcceptFunc decides incoming requests: return an Accept to take the
// connection or an error to reject it. The queue pair is created and
// connected by the agent before the decision callback returns control.
type AcceptFunc func(from simnet.Addr, privateData []byte) (*Accept, error)

// Config tunes handshake retransmission.
type Config struct {
	// RequestTimeout is how long to wait for a ConnectReply before
	// retransmitting the request. It may be shorter than the passive
	// side's setup (the switch takes 40 ms to reconfigure) as long as
	// RequestTimeout × (MaxRetries+1) outlasts it: the switch's control
	// plane answers a duplicate request from its stored reply. mu's
	// nodes retry every 10 ms, 40 times.
	RequestTimeout sim.Time
	// MaxRetries bounds request retransmissions.
	MaxRetries int
}

// DefaultConfig returns handshake timing that tolerates switch
// reconfiguration latency.
func DefaultConfig() Config {
	return Config{RequestTimeout: 100 * sim.Millisecond, MaxRetries: 3}
}

// Agent runs the connection manager for one NIC. It installs itself as
// the NIC's CM handler.
type Agent struct {
	nic    *rnic.NIC
	k      *sim.Kernel
	cfg    Config
	accept AcceptFunc

	nextCommID uint32
	dials      map[uint32]*dialState
	// passive connections keyed by (peer, remote comm id), for duplicate
	// request suppression and RTU routing.
	passive map[passiveKey]*passiveState
}

type passiveKey struct {
	peer   simnet.Addr
	commID uint32
}

type dialState struct {
	qp       *rnic.QP
	peer     simnet.Addr
	commID   uint32
	startPSN uint32
	priv     []byte
	done     func(*Conn, error)
	retries  int
	timer    sim.Timer
	finished bool
}

type passiveState struct {
	qp          *rnic.QP
	localCommID uint32
	reply       *roce.CMMessage
	established bool
	onEst       func(qp *rnic.QP)
}

// NewAgent attaches a CM agent to the NIC.
func NewAgent(nic *rnic.NIC, cfg Config) *Agent {
	a := &Agent{
		nic:        nic,
		k:          nic.Kernel(),
		cfg:        cfg,
		nextCommID: 1,
		dials:      make(map[uint32]*dialState),
		passive:    make(map[passiveKey]*passiveState),
	}
	nic.SetCMHandler(a.handleCM)
	return a
}

// SetAcceptFunc installs the passive-side policy. A nil policy rejects
// every request.
func (a *Agent) SetAcceptFunc(fn AcceptFunc) { a.accept = fn }

// Dial initiates a connection to dst, carrying privateData in the
// request. done is invoked exactly once with the established connection
// or an error.
func (a *Agent) Dial(dst simnet.Addr, privateData []byte, done func(*Conn, error)) {
	qp := a.nic.CreateQP()
	d := &dialState{
		qp:       qp,
		peer:     dst,
		commID:   a.nextCommID,
		startPSN: a.k.Rand().Uint32() & roce.PSNMask,
		priv:     privateData,
		done:     done,
	}
	a.nextCommID++
	a.dials[d.commID] = d
	a.sendRequest(d)
}

func (a *Agent) sendRequest(d *dialState) {
	msg := &roce.CMMessage{
		Type:        roce.CMConnectRequest,
		LocalCommID: d.commID,
		QPN:         d.qp.Num(),
		StartPSN:    d.startPSN,
		PrivateData: d.priv,
	}
	if err := a.nic.SendCM(d.peer, msg); err != nil {
		a.finishDial(d, nil, fmt.Errorf("cm: send request: %w", err))
		return
	}
	d.timer = a.k.Schedule(a.cfg.RequestTimeout, func() {
		if d.finished {
			return
		}
		d.retries++
		if d.retries > a.cfg.MaxRetries {
			a.finishDial(d, nil, ErrTimeout)
			return
		}
		a.sendRequest(d)
	})
}

// ResendPending re-sends every pending ConnectRequest now, in dial
// order, and restarts its retry timer. A host that moved onto a new
// route calls it: whatever it sent on the old route is lost, and
// waiting for the retry timer would add up to a RequestTimeout to the
// move.
func (a *Agent) ResendPending() {
	ids := make([]uint32, 0, len(a.dials))
	for id := range a.dials {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		d := a.dials[id]
		d.timer.Stop()
		a.sendRequest(d)
	}
}

func (a *Agent) finishDial(d *dialState, c *Conn, err error) {
	if d.finished {
		return
	}
	d.finished = true
	d.timer.Stop()
	delete(a.dials, d.commID)
	if err != nil {
		a.nic.DestroyQP(d.qp)
	}
	if d.done != nil {
		d.done(c, err)
	}
}

// handleCM dispatches inbound CM datagrams.
func (a *Agent) handleCM(msg *roce.CMMessage, from simnet.Addr) {
	switch msg.Type {
	case roce.CMConnectRequest:
		a.handleRequest(msg, from)
	case roce.CMConnectReply:
		a.handleReply(msg, from)
	case roce.CMReadyToUse:
		a.handleRTU(msg, from)
	case roce.CMConnectReject:
		a.handleReject(msg)
	case roce.CMDisconnect:
		a.handleDisconnect(msg, from)
	}
}

// Disconnect tears an established connection down from either side: the
// local queue pair is destroyed (flushing outstanding work) and the
// peer is told to do the same.
func (a *Agent) Disconnect(qp *rnic.QP) {
	if qp.State() != rnic.StateReady {
		return
	}
	_ = a.nic.SendCM(qp.RemoteIP(), &roce.CMMessage{
		Type: roce.CMDisconnect,
		QPN:  qp.Num(), // lets the peer resolve which connection died
	})
	a.nic.DestroyQP(qp)
}

func (a *Agent) handleDisconnect(msg *roce.CMMessage, from simnet.Addr) {
	if qp, ok := a.nic.FindQPByRemote(from, msg.QPN); ok {
		a.nic.DestroyQP(qp)
	}
}

func (a *Agent) handleRequest(msg *roce.CMMessage, from simnet.Addr) {
	key := passiveKey{peer: from, commID: msg.LocalCommID}
	if ps, dup := a.passive[key]; dup {
		// Retransmitted request: re-send the original reply.
		_ = a.nic.SendCM(from, ps.reply)
		return
	}
	reject := func(reason uint8) {
		_ = a.nic.SendCM(from, &roce.CMMessage{
			Type:         roce.CMConnectReject,
			RemoteCommID: msg.LocalCommID,
			RejectReason: reason,
		})
	}
	if a.accept == nil {
		reject(1)
		return
	}
	acc, err := a.accept(from, msg.PrivateData)
	if err != nil || acc == nil {
		reject(1)
		return
	}
	qp := a.nic.CreateQP()
	localPSN := a.k.Rand().Uint32() & roce.PSNMask
	qp.Connect(from, msg.QPN, localPSN, msg.StartPSN)
	reply := &roce.CMMessage{
		Type:         roce.CMConnectReply,
		LocalCommID:  a.nextCommID,
		RemoteCommID: msg.LocalCommID,
		QPN:          qp.Num(),
		StartPSN:     localPSN,
		PrivateData:  acc.PrivateData,
	}
	a.nextCommID++
	if acc.MR != nil {
		reply.VA = acc.MR.Base()
		reply.RKey = acc.MR.RKey()
		reply.BufLen = uint32(acc.MR.Len())
	}
	a.passive[key] = &passiveState{
		qp:          qp,
		localCommID: reply.LocalCommID,
		reply:       reply,
		onEst:       acc.OnEstablished,
	}
	_ = a.nic.SendCM(from, reply)
}

func (a *Agent) handleReply(msg *roce.CMMessage, from simnet.Addr) {
	d, ok := a.dials[msg.RemoteCommID]
	if !ok || d.finished {
		return
	}
	d.qp.Connect(from, msg.QPN, d.startPSN, msg.StartPSN)
	_ = a.nic.SendCM(from, &roce.CMMessage{
		Type:         roce.CMReadyToUse,
		LocalCommID:  d.commID,
		RemoteCommID: msg.LocalCommID,
	})
	a.finishDial(d, &Conn{
		QP:           d.qp,
		Peer:         from,
		RemoteVA:     msg.VA,
		RemoteRKey:   msg.RKey,
		RemoteBufLen: msg.BufLen,
		PrivateData:  msg.PrivateData,
	}, nil)
}

func (a *Agent) handleRTU(msg *roce.CMMessage, from simnet.Addr) {
	key := passiveKey{peer: from, commID: msg.LocalCommID}
	ps, ok := a.passive[key]
	if !ok || ps.established {
		return
	}
	ps.established = true
	if ps.onEst != nil {
		ps.onEst(ps.qp)
	}
}

func (a *Agent) handleReject(msg *roce.CMMessage) {
	if d, ok := a.dials[msg.RemoteCommID]; ok {
		a.finishDial(d, nil, fmt.Errorf("%w (reason %d)", ErrRejected, msg.RejectReason))
	}
}
