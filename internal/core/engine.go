package core

import (
	"errors"

	"p4ce/internal/cm"
	"p4ce/internal/mu"
	"p4ce/internal/otrace"
	"p4ce/internal/rnic"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// ErrNoSwitch reports engine operations without a configured switch.
var ErrNoSwitch = errors.New("core: no switch configured")

// Management is the engine's window onto the switch control plane — the
// BfRt RPC channel of the real system. An interface rather than the
// concrete control plane, because a leaf-spine fabric presents one
// management endpoint spanning several switches.
type Management interface {
	// RemoveReplica excludes a crashed replica from the leader's
	// communication group; done fires once the data plane is consistent.
	RemoveReplica(leader, replica simnet.Addr, done func(error))
}

// ReaccelerateInterval is how often a fallen-back leader re-probes the
// switch.
const ReaccelerateInterval = 100 * sim.Millisecond

// Config tunes the engine.
type Config struct {
	// SwitchAddr is the P4CE switch's address. Zero disables
	// acceleration entirely (plain Mu).
	SwitchAddr simnet.Addr
	// AsyncReconfig lets a new leader replicate through the direct
	// transport while the switch reconfigures, as the paper's Lesson 3
	// suggests; off reproduces the measured Table IV behaviour, where
	// the leader waits out the 40 ms reconfiguration.
	AsyncReconfig bool
	// Management, when set, lets the leader push membership updates to
	// the switch control plane (the BfRt RPC channel in the real
	// system). It is optional: without it, crashed replicas simply stop
	// contributing acknowledgments.
	Management Management
	// ManagementKernel is the scheduling domain the control plane lives
	// on (the fabric domain); required with Management. Management RPCs
	// hop there through sim.Kernel.Call instead of calling in.
	ManagementKernel *sim.Kernel
}

// DefaultConfig returns paper-faithful behaviour for the given switch.
func DefaultConfig(switchAddr simnet.Addr) Config {
	return Config{
		SwitchAddr:    switchAddr,
		AsyncReconfig: false,
	}
}

// switchTransport replicates through the switch: one request out, one
// aggregated acknowledgment back.
type switchTransport struct {
	conn *cm.Conn
}

var _ mu.Transport = (*switchTransport)(nil)

func (t *switchTransport) Name() string      { return "p4ce-switch" }
func (t *switchTransport) Requests() int     { return 1 }
func (t *switchTransport) AcksNeeded() int   { return 1 }
func (t *switchTransport) AcksExpected() int { return 1 }
func (t *switchTransport) Ready() bool {
	return t.conn != nil && t.conn.QP.State() == rnic.StateReady
}

func (t *switchTransport) Replicate(data []byte, off int, trace otrace.ID, ack func(error)) error {
	if !t.Ready() {
		return mu.ErrNotReady
	}
	// The switch advertised a zero-based virtual region: the write's VA
	// is simply the ring offset; the egress pipeline adds each replica's
	// real base address.
	return t.conn.QP.PostWriteTraced(data, uint64(off), t.conn.RemoteRKey, trace, ack)
}

// Engine accelerates one node.
type Engine struct {
	node *mu.Node
	cfg  Config
	k    *sim.Kernel

	transport *switchTransport
	dialSeq   int
	dialing   bool
	held      []heldProposal
	nodePeers []mu.Peer

	// Stats counts engine events.
	Stats Stats
}

// Stats are engine counters.
type Stats struct {
	GroupDials    uint64
	GroupReady    uint64
	Fallbacks     uint64
	Reaccelerated uint64
	// LastGroupUpdateAt is when the switch finished the most recent
	// membership reconfiguration for this leader (Table IV).
	LastGroupUpdateAt sim.Time
}

type heldProposal struct {
	data []byte
	done func(error)
}

// New wires an engine onto the node. Call before Node.Start.
func New(node *mu.Node, cfg Config) *Engine {
	e := &Engine{node: node, cfg: cfg, k: node.NIC().Kernel()}
	if cfg.SwitchAddr != 0 {
		node.SetExtraLogWriters(cfg.SwitchAddr)
		node.SetExtraAccept(e.acceptGroupConn)
	}
	node.OnBecameLeader = e.onBecameLeader
	node.OnLostLeader = e.onLostLeader
	node.OnFallback = e.onFallback
	node.OnReplicaExcluded = e.onReplicaExcluded
	return e
}

// Accelerated reports whether the switch transport is active.
func (e *Engine) Accelerated() bool {
	return e.transport != nil && e.transport.Ready() && e.node.PreferredTransport() != nil
}

// Propose submits a client value through the engine. While a
// synchronous switch reconfiguration is pending, proposals queue and
// fire once the communication path is decided.
func (e *Engine) Propose(data []byte, done func(error)) error {
	if !e.node.IsLeader() {
		return mu.ErrNotLeader
	}
	if e.holding() {
		e.held = append(e.held, heldProposal{data: data, done: done})
		return nil
	}
	return e.node.Propose(data, done)
}

// holding reports whether proposals must wait for the switch.
func (e *Engine) holding() bool {
	return e.cfg.SwitchAddr != 0 && !e.cfg.AsyncReconfig && e.dialing
}

// acceptGroupConn handles the switch control plane's per-replica
// ConnectRequests: private data names the group's owning leader.
func (e *Engine) acceptGroupConn(from simnet.Addr, priv []byte) (*cm.Accept, error, bool) {
	if from != e.cfg.SwitchAddr {
		return nil, nil, false
	}
	owner, err := roce.UnmarshalReplicaSet(priv)
	if err != nil || len(owner.Replicas) != 1 {
		return nil, errors.New("core: malformed group owner"), true
	}
	leader := owner.Replicas[0]
	// Only the machine this replica believes is leader may own a group
	// that writes to its log (fencing, §III-A "Faulty leader").
	if e.node.LeaderID() < 0 || leader != e.leaderAddr() {
		return nil, errors.New("core: group owner is not my leader"), true
	}
	return &cm.Accept{
		MR: e.node.LogMR(),
		OnEstablished: func(qp *rnic.QP) {
			e.node.RegisterInboundGroupQP(leader, qp)
		},
	}, nil, true
}

func (e *Engine) leaderAddr() simnet.Addr {
	id := e.node.LeaderID()
	if id == e.node.ID() {
		return e.node.Addr()
	}
	for _, p := range e.nodePeers {
		if p.ID == id {
			return p.Addr
		}
	}
	return 0
}

// SetPeers tells the engine the cluster membership (topology builders
// call it once, mirroring the node's configuration).
func (e *Engine) SetPeers(peers []mu.Peer) {
	e.nodePeers = append([]mu.Peer(nil), peers...)
}

// onBecameLeader dials the switch group. A host detached from the
// switch (see DetachSwitch) stays un-accelerated instead of stalling on
// a doomed handshake.
func (e *Engine) onBecameLeader() {
	if e.cfg.SwitchAddr == 0 {
		return
	}
	e.dialSwitch()
}

// DetachSwitch disables acceleration for good: the fabric moved this
// host onto a plain backup route, where no programmable switch is left
// to dial. Proposals held for a pending dial are released when it
// fails, as on any fallback.
func (e *Engine) DetachSwitch() { e.cfg.SwitchAddr = 0 }

func (e *Engine) onLostLeader() {
	e.dialSeq++ // invalidate in-flight dials and probes
	e.dialing = false
	if e.transport != nil && e.transport.conn != nil {
		e.node.NIC().DestroyQP(e.transport.conn.QP)
	}
	e.transport = nil
	for _, h := range e.held {
		if h.done != nil {
			h.done(mu.ErrLostLeadership)
		}
	}
	e.held = nil
}

// onFallback reacts to the node abandoning the switch transport (NAK or
// timeout on the accelerated path).
func (e *Engine) onFallback() {
	e.Stats.Fallbacks++
	if e.transport != nil && e.transport.conn != nil {
		e.node.NIC().DestroyQP(e.transport.conn.QP)
	}
	e.transport = nil
	// Probe for re-acceleration later — unless the host was detached
	// from the switch, in which case only operator action brings it back.
	seq := e.dialSeq
	e.k.Schedule(ReaccelerateInterval, func() {
		if seq != e.dialSeq || !e.node.IsLeader() || e.cfg.SwitchAddr == 0 {
			return
		}
		e.Stats.Reaccelerated++
		e.dialSwitch()
	})
}

// onReplicaExcluded mirrors a replica exclusion into the switch group.
func (e *Engine) onReplicaExcluded(id int) {
	if e.cfg.Management == nil || e.cfg.SwitchAddr == 0 {
		return
	}
	var addr simnet.Addr
	for _, p := range e.nodePeers {
		if p.ID == id {
			addr = p.Addr
		}
	}
	if addr == 0 {
		return
	}
	// Hop over for the RPC and hop back for the completion, so both
	// sides run on — and only read the clock of — their own domain.
	mk, leader := e.cfg.ManagementKernel, e.node.Addr()
	e.k.Call(mk, func() {
		e.cfg.Management.RemoveReplica(leader, addr, func(err error) {
			if err != nil {
				return
			}
			mk.Call(e.k, func() {
				e.Stats.LastGroupUpdateAt = e.k.Now()
			})
		})
	})
}

// dialSwitch establishes (or re-establishes) the communication group.
func (e *Engine) dialSwitch() {
	if e.dialing || !e.node.IsLeader() {
		return
	}
	e.dialing = true
	e.dialSeq++
	seq := e.dialSeq
	e.Stats.GroupDials++

	// Only live replicas join the group — a dead one would stall the
	// control plane's fan-out handshake. The quorum still rides along
	// explicitly, so a partial membership can never shrink safety.
	rs := roce.ReplicaSet{AcksRequired: uint8(e.node.ClusterSize() / 2)}
	for _, p := range e.node.LivePeers() {
		rs.Replicas = append(rs.Replicas, p.Addr)
	}
	if len(rs.Replicas) == 0 {
		e.dialing = false
		return
	}
	priv, err := rs.MarshalReplicaSet()
	if err != nil {
		e.dialing = false
		return
	}
	e.node.CMAgent().Dial(e.cfg.SwitchAddr, priv, func(c *cm.Conn, err error) {
		if seq != e.dialSeq {
			if err == nil {
				e.node.NIC().DestroyQP(c.QP)
			}
			return
		}
		e.dialing = false
		if err != nil {
			// No acceleration available: proceed un-accelerated and let
			// the fallback probe retry later.
			e.flushHeld()
			e.onFallback()
			return
		}
		e.Stats.GroupReady++
		e.transport = &switchTransport{conn: c}
		c.QP.SetOnError(func(error) {
			// The node's ack path usually notices first; this covers
			// timeouts between proposals. Fallback re-drives pending
			// proposals through the direct transport and fires the
			// engine's OnFallback cleanup.
			if e.node.PreferredTransport() == e.transport {
				e.node.Fallback()
			}
		})
		e.node.SetPreferredTransport(e.transport)
		e.flushHeld()
	})
}

// flushHeld releases proposals queued during a synchronous reconfig.
func (e *Engine) flushHeld() {
	held := e.held
	e.held = nil
	for _, h := range held {
		if err := e.node.Propose(h.data, h.done); err != nil && h.done != nil {
			h.done(err)
		}
	}
}
