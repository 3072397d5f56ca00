package mu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"p4ce/internal/cm"
	"p4ce/internal/metrics"
	"p4ce/internal/otrace"
	"p4ce/internal/rnic"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// Protocol errors surfaced to Propose callers.
var (
	// ErrNotLeader reports a proposal on a machine that is not leading.
	ErrNotLeader = errors.New("mu: not the leader")
	// ErrLostLeadership reports proposals flushed by a view change.
	ErrLostLeadership = errors.New("mu: lost leadership")
	// ErrLostQuorum reports that too few replicas remain reachable.
	ErrLostQuorum = errors.New("mu: lost quorum")
)

// Role is a machine's current protocol role.
type Role int

// Roles.
const (
	RoleFollower Role = iota
	RoleElecting
	RoleLeader
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleElecting:
		return "electing"
	case RoleLeader:
		return "leader"
	default:
		return "unknown"
	}
}

// Peer identifies one cluster machine.
type Peer struct {
	ID   int
	Addr simnet.Addr
}

// Dial-kind tags in CM private data. They cannot collide with the
// replica-set encoding the switch control plane uses, whose first byte
// is a count ≤ 22.
const (
	dialKindMonitor = 'M'
	dialKindRepl    = 'R'
)

// Control-region slots (u64 each).
const (
	ctrlHeartbeat = iota
	ctrlTerm
	ctrlLastIndex
	ctrlLastTerm
	ctrlCommit
	ctrlRingOff
)

// peerState is this machine's view of one peer.
type peerState struct {
	peer    Peer
	conn    *cm.Conn // monitor connection (control-region reads)
	logVA   uint64
	logRKey uint32
	logLen  uint32
	// readBufs rotate as destinations for the pipelined control-region
	// reads (at most maxOutstandingReads in flight; completions arrive
	// in post order on the RC queue pair, so a slot is reused only after
	// its read completed). Rotating beats allocating one per read.
	readBufs [8][]byte
	readSeq  int
	reads    int // outstanding control-region reads
	dialing  bool
	everSeen bool
	lastHB   uint64
	lastNew  sim.Time // when the heartbeat counter last changed
	// Last control values observed.
	term      uint64
	lastIndex uint64
	lastTerm  uint64
	commit    uint64
	ringOff   uint64
	// Replication-connection bookkeeping (leader side).
	replDialing  bool
	lastReplDial sim.Time
	// lastRepair rate-limits divergence repairs: the control-region
	// reads that would clear the verdict lag the repair by round-trips.
	lastRepair sim.Time
}

// recentEntry is a re-replication cache record.
type recentEntry struct {
	index uint64 // log index; 0 marks an empty slot (indices start at 1)
	off   int
	bytes []byte
}

// recentRing is the re-replication cache: the encoded form of the most
// recent log entries, entry idx in slot idx % CatchUpWindow. It holds at
// most CatchUpWindow entries and at most one log ring of encoded bytes,
// whichever is fewer. Log indices are dense, so the cache is a sliding
// window from low up: caching idx evicts the entry a whole slot array
// older and then, oldest first, whatever the byte bound requires (see
// Node.setRecent).
type recentRing struct {
	slots []recentEntry
	bytes int    // encoded bytes held
	low   uint64 // no entry below it is held
}

func (r *recentRing) slot(idx uint64) *recentEntry { return &r.slots[idx%uint64(len(r.slots))] }

// get returns the cached record of entry idx.
func (r *recentRing) get(idx uint64) (recentEntry, bool) {
	ent := *r.slot(idx)
	return ent, ent.index == idx && idx != 0
}

// del removes and returns the cached record of entry idx.
func (r *recentRing) del(idx uint64) (recentEntry, bool) {
	ent, ok := r.get(idx)
	if ok {
		*r.slot(idx) = recentEntry{}
		r.bytes -= len(ent.bytes)
	}
	return ent, ok
}

// proposal is one in-flight replicated entry at the leader. Proposals
// are pooled: gen stays monotonic across recycling, so acknowledgment
// contexts bound to an earlier incarnation observe a mismatch and stay
// inert.
type proposal struct {
	index     uint64
	bytes     []byte
	off       int
	markOff   int // ≥0 when a wrap marker precedes the entry
	needed    int
	got       int
	gen       int // incarnation (bumped on every dispatch and recycle)
	committed bool
	noop      bool
	done      func(error)
	// dones fans commit (or failure) out to every operation of a
	// FlagBatch entry, in queue order. Empty for plain entries.
	dones      []func(error)
	proposedAt sim.Time
	// trace is the entry's causal trace ID (zero when tracing is off).
	// It rides every Replicate down to the NIC and is finished (or
	// aborted) when the proposal leaves the table.
	trace otrace.ID
}

// dispatchCtx carries one transport drive of one proposal through the
// leader's CPU-cost events without per-operation closures: the ack
// callback is bound once when the context is first created and survives
// recycling. remaining counts the acknowledgment events still expected
// from the transport; the context returns to the pool when it reaches
// zero.
type dispatchCtx struct {
	p         *proposal
	t         Transport
	gen       int
	remaining int
	ackFn     func(error)
}

// ackEvt carries one acknowledgment (context + verdict) through the
// CPU's deferred-work queue.
type ackEvt struct {
	ctx *dispatchCtx
	err error
}

// Node is one machine participating in the protocol. All its activity is
// event-driven on the simulation kernel.
type Node struct {
	cfg   Config
	self  Peer
	peers []Peer // excludes self
	k     *sim.Kernel
	nic   *rnic.NIC
	agent *cm.Agent
	cpu   *sim.CPU

	controlMR *rnic.MR
	logMR     *rnic.MR
	logBuf    []byte
	ring      *Ring
	consumer  *Consumer

	term        uint64
	lastIndex   uint64
	lastTerm    uint32
	commitIndex uint64
	appliedIdx  uint64
	// pendingApply holds entries (from any source: consumed as a
	// follower, adopted during catch-up, or self-proposed as leader) in
	// index order, awaiting commit coverage before application. Entry
	// Data aliases the re-replication cache's pooled copies; setRecent
	// keeps a pruned buffer out of the pool until application passed it.
	pendingApply entryQueue

	role     Role
	leaderID int
	started  bool
	crashed  bool
	startAt  sim.Time

	peerStates map[int]*peerState
	// peerOrder holds the same states sorted by peer ID. Every loop whose
	// body emits network events iterates this slice, never the map: Go
	// randomizes map order per process, which would make two runs with the
	// same kernel seed diverge.
	peerOrder []*peerState
	maxSeen   uint64 // highest term observed anywhere

	// Leader state.
	direct      *DirectTransport
	preferred   Transport
	replConns   map[int]*cm.Conn
	proposals   map[uint64]*proposal
	recent      recentRing
	maxDataIdx  uint64 // highest non-noop index
	sentCommit  uint64 // highest commit index embedded in an appended entry
	firstOwnIdx uint64 // first index proposed in this leadership
	takeoverSeq int    // invalidates stale takeover timers
	rewindSeq   uint32 // rewind markers issued (repairReplica), per term

	// Adaptive batcher state (see batch.go).
	batchQ     []batchedOp
	batchBytes int // framed payload size of the queue
	batchSeq   int // invalidates armed age-flush timers
	batchArmed bool

	// Hot-path free lists and the callbacks bound once for them (see
	// dispatch / postStep / ackStep). A proposal taken from propFree
	// keeps only its gen: the taker must set every other field, and gen
	// carries over so stale acknowledgment contexts cannot mistake the
	// new incarnation for theirs.
	propFree sim.FreeList[proposal]
	ctxFree  sim.FreeList[dispatchCtx]
	evtFree  sim.FreeList[ackEvt]
	postFn   func(any)
	ackAnyFn func(any)

	// Inbound write queue pairs by group owner, for fencing.
	inbound map[simnet.Addr][]*rnic.QP
	// Extra addresses always allowed to write the log (the P4CE switch).
	extraWriters []simnet.Addr
	// extraAccept lets the engine take over non-Mu CM requests (the
	// switch control plane's group connections).
	extraAccept func(from simnet.Addr, priv []byte) (*cm.Accept, error, bool)

	hbTicker     *sim.Ticker
	monTicker    *sim.Ticker
	commitTicker *sim.Ticker

	// Callbacks. OnApply's entry Data aliases a pooled cache buffer and
	// is valid only for the duration of the call; state machines that
	// retain command bytes must copy them.
	OnApply        func(Entry)
	OnLeaderChange func(term uint64, leaderID int)
	OnBecameLeader func()
	OnLostLeader   func()
	// OnFallback fires when the accelerated transport failed and the
	// node reverted to direct replication.
	OnFallback func()
	// OnReplicaExcluded fires when the leader drops a dead replica from
	// its replication set (the P4CE engine mirrors the exclusion into
	// the switch group).
	OnReplicaExcluded func(id int)

	// Stats for experiments.
	Stats NodeStats

	// Causal tracing (nil no-ops without a tracer on the kernel).
	otr *otrace.Tracer
	oc  *otrace.Component

	// Metric handles (nil no-ops without a registry on the kernel).
	mProposed      *metrics.Counter
	mCommitted     *metrics.Counter
	mCommitLatNs   *metrics.Histogram // propose → commit, leader-side
	mLeaderChanges *metrics.Counter
	mFallbacks     *metrics.Counter
	mBatchOps      *metrics.Histogram // client ops per flushed entry
	// Per-group series, under "mu.shard<s>." next to the shared "mu.*"
	// ones.
	mGroupProposed    *metrics.Counter
	mGroupCommitted   *metrics.Counter
	mGroupCommitLatNs *metrics.Histogram
}

// NodeStats counts protocol events.
type NodeStats struct {
	Proposed     uint64
	Committed    uint64
	ViewChanges  uint64
	Fallbacks    uint64
	CatchUpBytes uint64
	Exclusions   uint64
	// LastExclusionAt is when the leader last dropped a dead replica
	// from its replication set (Table IV's replica-crash hand-off).
	LastExclusionAt sim.Time
	// SuffixRepairs counts divergence repairs this machine issued as
	// leader: a replica's uncommitted log suffix provably disagreed with
	// the leader's log and was rewound and rewritten (repairReplica).
	SuffixRepairs uint64
	// SuffixRewinds counts rewind markers this machine's consumer acted
	// on: a leader discarded this machine's uncommitted suffix before
	// replacing it with its own.
	SuffixRewinds uint64
}

// NewNode builds (but does not start) a machine. The NIC must already
// have its ports attached; its shard (rnic.NIC.Shard) names the node's
// consensus group in metrics and traces.
func NewNode(cfg Config, self Peer, peers []Peer, nic *rnic.NIC) *Node {
	// Handshakes retry every 10 ms: quick enough to recover promptly
	// after a route fail-over, patient enough (40 tries) to ride out the
	// switch's 40 ms group reconfiguration, whose control plane absorbs
	// duplicate requests.
	cmCfg := cm.Config{RequestTimeout: 10 * sim.Millisecond, MaxRetries: 40}
	n := &Node{
		cfg:        cfg,
		self:       self,
		peers:      append([]Peer(nil), peers...),
		k:          nic.Kernel(),
		nic:        nic,
		agent:      cm.NewAgent(nic, cmCfg),
		cpu:        sim.NewCPU(nic.Kernel()),
		leaderID:   -1,
		peerStates: make(map[int]*peerState, len(peers)),
		replConns:  make(map[int]*cm.Conn),
		proposals:  make(map[uint64]*proposal),
		recent:     recentRing{slots: make([]recentEntry, CatchUpWindow)},
		inbound:    make(map[simnet.Addr][]*rnic.QP),
	}
	m := nic.Kernel().Metrics()
	n.mProposed = m.Counter("mu.proposed")
	n.mCommitted = m.Counter("mu.committed")
	n.mCommitLatNs = m.Histogram("mu.commit_latency_ns")
	n.mLeaderChanges = m.Counter("mu.leader_changes")
	n.mFallbacks = m.Counter("mu.fallbacks")
	n.mBatchOps = m.Histogram("mu.batch_ops_per_entry")
	// Always scoped, even single-shard: the telemetry sampler reads the
	// per-shard instruments from the shard's own scheduling domain (the
	// global mu.* series are written by every domain and would race
	// under the partitioned kernel).
	shard := nic.Shard()
	scope := m.Scope(fmt.Sprintf("mu.shard%d", shard))
	n.mGroupProposed = scope.Counter("proposed")
	n.mGroupCommitted = scope.Counter("committed")
	n.mGroupCommitLatNs = scope.Histogram("commit_latency_ns")
	n.otr = nic.Kernel().Tracer()
	n.oc = n.otr.ComponentAt(fmt.Sprintf("s%d/mu/n%d", shard, self.ID), shard,
		func() int64 { return int64(nic.Kernel().Now()) })
	ctrl := make([]byte, controlRegionBytes)
	n.controlMR = nic.RegisterMR(ControlVA, ctrl, rnic.AccessRemoteRead)
	n.logBuf = make([]byte, cfg.LogSize)
	n.logMR = nic.RegisterMR(LogVA, n.logBuf, rnic.AccessRemoteRead|rnic.AccessRemoteWrite)
	n.ring = NewRing(cfg.LogSize)
	n.consumer = NewConsumer(n.logBuf, 1)
	// Followers keep the same re-replication cache leaders build, so a
	// freshly elected leader can bring laggards up to date; entries also
	// queue for state-machine application once committed. The encoded
	// bytes are already in the ring at the reported offset, so the cache
	// copy is a memcpy into a pooled buffer, not a re-encode.
	n.consumer.OnReceiveAt = func(e Entry, off int) {
		enc := n.k.Buffers().Clone(n.logBuf[off : off+e.EncodedSize()])
		if old, dup := n.recent.get(e.Index); dup && e.Index > n.appliedIdx {
			// Re-consumption after a rewind repair replaces the cache
			// record; its pendingApply alias was filtered by OnRewind, so
			// the old buffer can recycle. (Applied entries may still be
			// aliased by an OnApply consumer: leave those to the GC.)
			n.k.Buffers().Put(old.bytes)
		}
		n.setRecent(e.Index, off, enc)
		// Queue for application against the cached copy: the ring bytes
		// can be overwritten by a wrap before the commit index arrives.
		e.Data = entryData(enc)
		n.pendingApply.Push(e)
	}
	// A leader that finds this machine's uncommitted suffix divergent
	// rewinds the consumer to the committed prefix before rewriting it
	// (repairReplica); drop every piece of local bookkeeping that covered
	// the discarded suffix — the rewrite re-delivers all of it.
	n.consumer.allowRewind = true
	n.consumer.OnRewind = func(target uint64, keptTerm uint32, off int) {
		n.pendingApply.Filter(func(e *Entry) bool { return e.Index < target })
		for idx := target; idx <= n.lastIndex; idx++ {
			if ent, ok := n.recent.del(idx); ok {
				n.k.Buffers().Put(ent.bytes)
			}
		}
		if n.lastIndex >= target {
			n.lastIndex = target - 1
			n.lastTerm = keptTerm
		}
		n.ring.SetOffset(off)
		n.Stats.SuffixRewinds++
		n.publishState()
	}
	n.logMR.SetOnWrite(n.consumeInbound)
	n.postFn = n.postStep
	n.ackAnyFn = n.ackStep
	for _, p := range peers {
		n.peerStates[p.ID] = &peerState{peer: p}
	}
	for _, p := range peers {
		n.peerOrder = append(n.peerOrder, n.peerStates[p.ID])
	}
	sort.Slice(n.peerOrder, func(i, j int) bool {
		return n.peerOrder[i].peer.ID < n.peerOrder[j].peer.ID
	})
	n.agent.SetAcceptFunc(n.acceptCM)
	return n
}

// putProposal recycles a finished proposal. Bumping gen here makes every
// outstanding context for it inert immediately, even before reuse.
func (n *Node) putProposal(p *proposal) {
	p.gen++
	p.bytes = nil
	p.done = nil
	p.trace = 0
	for i := range p.dones {
		p.dones[i] = nil
	}
	p.dones = p.dones[:0]
	n.propFree.Put(p)
}

// getDispatchCtx pops a recycled dispatch context. The ack callback is
// created once per context, on first use, and reused across recycles —
// it resolves the context's current fields when it fires.
func (n *Node) getDispatchCtx() *dispatchCtx {
	ctx := n.ctxFree.Get()
	if ctx.ackFn == nil {
		ctx.ackFn = func(err error) {
			// Processing each acknowledgment costs CPU (§V-C).
			evt := n.evtFree.Get()
			evt.ctx, evt.err = ctx, err
			n.cpu.DoArg(n.cfg.CPUAckCost, n.ackAnyFn, evt)
		}
	}
	return ctx
}

func (n *Node) putDispatchCtx(ctx *dispatchCtx) {
	ctx.p, ctx.t = nil, nil
	n.ctxFree.Put(ctx)
}

func (n *Node) putAckEvt(evt *ackEvt) {
	evt.ctx, evt.err = nil, nil
	n.evtFree.Put(evt)
}

// setRecent caches the encoded entry idx, evicting the records that
// fell out of the catch-up window when idx was appended: the one whose
// slot it takes, then the oldest until the cache fits in one log ring.
// An evicted buffer returns to the pool only once application has
// passed its entry: until then the pendingApply queue (and OnApply
// delivery) still alias its bytes. The rare unrecycled buffer is simply
// left to the garbage collector.
func (n *Node) setRecent(idx uint64, off int, bytes []byte) {
	r := &n.recent
	slot := r.slot(idx)
	if old := *slot; old.index != 0 {
		r.bytes -= len(old.bytes)
		if old.index != idx && old.index <= n.appliedIdx {
			n.k.Buffers().Put(old.bytes)
		}
	}
	*slot = recentEntry{index: idx, off: off, bytes: bytes}
	r.bytes += len(bytes)
	// A rewind can re-deliver entries below the window's old edge.
	r.low = min(r.low, idx)
	for r.bytes > len(n.logBuf) && r.low < idx {
		if old, ok := r.del(r.low); ok && old.index <= n.appliedIdx {
			n.k.Buffers().Put(old.bytes)
		}
		r.low++
	}
}

// ID returns the machine identifier.
func (n *Node) ID() int { return n.self.ID }

// Addr returns the machine address.
func (n *Node) Addr() simnet.Addr { return n.self.Addr }

// NIC returns the machine's RDMA card.
func (n *Node) NIC() *rnic.NIC { return n.nic }

// CMAgent returns the machine's connection manager.
func (n *Node) CMAgent() *cm.Agent { return n.agent }

// CPU returns the host CPU resource (for cost accounting by transports).
func (n *Node) CPU() *sim.CPU { return n.cpu }

// Role returns the current role.
func (n *Node) Role() Role { return n.role }

// IsLeader reports whether this machine currently leads.
func (n *Node) IsLeader() bool { return n.role == RoleLeader }

// LeaderID returns the machine this node currently considers leader (-1
// when unknown).
func (n *Node) LeaderID() int { return n.leaderID }

// Term returns the current view number.
func (n *Node) Term() uint64 { return n.term }

// LastIndex returns the last log index on this machine.
func (n *Node) LastIndex() uint64 { return n.lastIndex }

// CommitIndex returns the highest committed index this machine knows.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// ClusterSize returns the number of machines (self included).
func (n *Node) ClusterSize() int { return len(n.peers) + 1 }

// ReplicationPaths reports how many replicas the leader currently has
// healthy write paths to (zero on non-leaders).
func (n *Node) ReplicationPaths() int {
	if n.direct == nil {
		return 0
	}
	return n.direct.PathCount()
}

// ForceView installs a leadership verdict without failure detection.
// Benchmark clusters run with heartbeats disabled and jump straight to
// a known view; everything downstream (permission switching, takeover,
// transport setup) still runs the real protocol.
func (n *Node) ForceView(leaderID int) {
	if n.leaderID != leaderID {
		n.leaderChanged(leaderID)
	}
}

// LivePeers returns the peers currently considered alive.
func (n *Node) LivePeers() []Peer {
	var live []Peer
	for _, ps := range n.peerOrder {
		if n.peerAlive(ps) {
			live = append(live, ps.peer)
		}
	}
	return live
}

// SetPreferredTransport installs (or clears) the accelerated transport.
// Uncommitted proposals are re-driven through the new choice.
func (n *Node) SetPreferredTransport(t Transport) {
	n.preferred = t
}

// PreferredTransport returns the accelerated transport, if any.
func (n *Node) PreferredTransport() Transport { return n.preferred }

// SetExtraLogWriters lists addresses that stay write-authorized across
// view changes (the P4CE switch).
func (n *Node) SetExtraLogWriters(addrs ...simnet.Addr) {
	n.extraWriters = append([]simnet.Addr(nil), addrs...)
}

// SetExtraAccept installs a hook that may claim CM requests before the
// protocol's own accept policy runs.
func (n *Node) SetExtraAccept(fn func(from simnet.Addr, priv []byte) (*cm.Accept, error, bool)) {
	n.extraAccept = fn
}

// RegisterInboundGroupQP records a switch-group queue pair and its
// owning leader so fencing can revoke it on view changes.
func (n *Node) RegisterInboundGroupQP(owner simnet.Addr, qp *rnic.QP) {
	n.inbound[owner] = append(n.inbound[owner], qp)
}

// LogAdvert returns the (VA, R_key, length) advertisement of this
// machine's log region.
func (n *Node) LogAdvert() (uint64, uint32, uint32) {
	return n.logMR.Base(), n.logMR.RKey(), uint32(n.logMR.Len())
}

// LogMR exposes the log region (engine accept policies).
func (n *Node) LogMR() *rnic.MR { return n.logMR }

// Start begins heartbeating, monitoring and (eventually) leading.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.startAt = n.k.Now()
	n.setControl(ctrlHeartbeat, 1)
	if !n.cfg.DisableHeartbeats {
		n.hbTicker = n.k.NewTicker(HeartbeatInterval, func() {
			n.bumpControl(ctrlHeartbeat)
		})
		n.monTicker = n.k.NewTicker(MonitorInterval, n.monitorTick)
	}
	n.commitTicker = n.k.NewTicker(CommitSyncInterval, n.commitSyncTick)
	for _, ps := range n.peerOrder {
		n.dialMonitor(ps)
	}
}

// Stop halts all activity (graceful shutdown).
func (n *Node) Stop() {
	n.stopTickers()
	n.started = false
}

// Crash models a machine failure: tickers stop, the NIC goes dark on
// every leg.
func (n *Node) Crash() {
	n.crashed = true
	n.stopTickers()
	n.nic.SetPower(false)
}

// Crashed reports whether the machine was crashed.
func (n *Node) Crashed() bool { return n.crashed }

func (n *Node) stopTickers() {
	if n.hbTicker != nil {
		n.hbTicker.Stop()
	}
	if n.monTicker != nil {
		n.monTicker.Stop()
	}
	if n.commitTicker != nil {
		n.commitTicker.Stop()
	}
}

// setControl stores a u64 into the control region.
func (n *Node) setControl(slot int, v uint64) {
	binary.BigEndian.PutUint64(n.controlMR.Bytes()[slot*8:], v)
}

func (n *Node) bumpControl(slot int) {
	buf := n.controlMR.Bytes()[slot*8:]
	binary.BigEndian.PutUint64(buf, binary.BigEndian.Uint64(buf)+1)
}

// publishState refreshes the control region after log/term changes.
func (n *Node) publishState() {
	n.setControl(ctrlTerm, n.term)
	n.setControl(ctrlLastIndex, n.lastIndex)
	n.setControl(ctrlLastTerm, uint64(n.lastTerm))
	n.setControl(ctrlCommit, n.commitIndex)
	n.setControl(ctrlRingOff, uint64(n.ring.Offset()))
}

// acceptCM is the machine's CM accept policy.
func (n *Node) acceptCM(from simnet.Addr, priv []byte) (*cm.Accept, error) {
	if n.crashed {
		return nil, errors.New("mu: crashed")
	}
	if n.extraAccept != nil {
		if acc, err, handled := n.extraAccept(from, priv); handled {
			return acc, err
		}
	}
	if len(priv) == 0 {
		return nil, errors.New("mu: missing dial kind")
	}
	switch priv[0] {
	case dialKindMonitor:
		va, rkey, length := n.LogAdvert()
		advert := make([]byte, 17)
		advert[0] = dialKindMonitor
		binary.BigEndian.PutUint64(advert[1:9], va)
		binary.BigEndian.PutUint32(advert[9:13], rkey)
		binary.BigEndian.PutUint32(advert[13:17], length)
		return &cm.Accept{MR: n.controlMR, PrivateData: advert}, nil
	case dialKindRepl:
		// Grant log write permission only to the machine this replica
		// currently believes is leader (the Mu fencing rule, §III).
		if n.leaderID < 0 || from != n.addrOf(n.leaderID) {
			return nil, fmt.Errorf("mu: %v is not my leader", from)
		}
		return &cm.Accept{
			MR: n.logMR,
			OnEstablished: func(qp *rnic.QP) {
				n.inbound[from] = append(n.inbound[from], qp)
			},
		}, nil
	default:
		return nil, fmt.Errorf("mu: unknown dial kind %d", priv[0])
	}
}

func (n *Node) addrOf(id int) simnet.Addr {
	if id == n.self.ID {
		return n.self.Addr
	}
	for _, p := range n.peers {
		if p.ID == id {
			return p.Addr
		}
	}
	return 0
}

// dialMonitor establishes the control-region read connection to a peer.
func (n *Node) dialMonitor(ps *peerState) {
	if ps.dialing || n.crashed {
		return
	}
	ps.dialing = true
	n.agent.Dial(ps.peer.Addr, []byte{dialKindMonitor}, func(c *cm.Conn, err error) {
		ps.dialing = false
		if err != nil {
			// Peer unreachable: retry while it matters.
			if !n.crashed && n.started {
				n.k.Schedule(500*sim.Microsecond, func() { n.dialMonitor(ps) })
			}
			return
		}
		ps.conn = c
		if len(c.PrivateData) == 17 && c.PrivateData[0] == dialKindMonitor {
			ps.logVA = binary.BigEndian.Uint64(c.PrivateData[1:9])
			ps.logRKey = binary.BigEndian.Uint32(c.PrivateData[9:13])
			ps.logLen = binary.BigEndian.Uint32(c.PrivateData[13:17])
		}
		c.QP.SetOnError(func(error) {
			ps.conn = nil
			if !n.crashed && n.started {
				n.k.Schedule(500*sim.Microsecond, func() { n.dialMonitor(ps) })
			}
		})
	})
}

// monitorTick reads every peer's control region and re-evaluates
// leadership.
func (n *Node) monitorTick() {
	if n.crashed {
		return
	}
	for _, ps := range n.peerOrder {
		n.readPeer(ps)
	}
	n.evaluate()
	if n.role == RoleLeader {
		n.reconcileReplicas()
	}
}

// reconcileReplicas keeps the leader's replication set aligned with the
// live membership: dead replicas are excluded (Mu's instant multicast-
// group update, Table IV) and replicas that missed the takeover dial —
// or were momentarily unreachable — are brought back in and caught up.
func (n *Node) reconcileReplicas() {
	for _, ps := range n.peerOrder {
		id := ps.peer.ID
		_, connected := n.replConns[id]
		alive := n.peerAlive(ps)
		switch {
		case connected && !alive:
			c := n.replConns[id]
			delete(n.replConns, id)
			n.direct.RemovePath(id)
			n.nic.DestroyQP(c.QP)
			n.Stats.Exclusions++
			n.Stats.LastExclusionAt = n.k.Now()
			if n.OnReplicaExcluded != nil {
				n.OnReplicaExcluded(id)
			}
			if !n.direct.Ready() {
				n.stepDown(ErrLostQuorum)
				return
			}
		case !connected && alive && !ps.replDialing &&
			n.k.Now()-ps.lastReplDial > 500*sim.Microsecond:
			n.dialRepl(ps)
		case connected && alive:
			// A connected replica whose published log tail contradicts
			// this leader's log kept an uncommitted suffix from a dead
			// leader; rewind and rewrite it before it can be applied.
			if n.suffixDiverged(ps) {
				n.repairReplica(ps, n.replConns[id])
			}
		}
	}
}

// dialRepl opens (or re-opens) one replication connection.
func (n *Node) dialRepl(ps *peerState) {
	ps.replDialing = true
	ps.lastReplDial = n.k.Now()
	priv := make([]byte, 13)
	priv[0] = dialKindRepl
	binary.BigEndian.PutUint64(priv[1:9], n.term)
	binary.BigEndian.PutUint32(priv[9:13], uint32(n.self.ID))
	n.agent.Dial(ps.peer.Addr, priv, func(c *cm.Conn, err error) {
		ps.replDialing = false
		if err != nil {
			return
		}
		if n.role != RoleLeader {
			n.nic.DestroyQP(c.QP)
			return
		}
		n.addReplPath(ps.peer.ID, c)
	})
}

// addReplPath installs one granted replication connection and brings the
// replica up to date.
func (n *Node) addReplPath(id int, c *cm.Conn) {
	if _, dup := n.replConns[id]; dup {
		n.nic.DestroyQP(c.QP)
		return
	}
	n.replConns[id] = c
	n.direct.AddPath(id, func(data []byte, off int, trace otrace.ID, done func(error)) error {
		return c.QP.PostWriteTraced(data, c.RemoteVA+uint64(off), c.RemoteRKey, trace, done)
	})
	c.QP.SetOnError(func(error) { n.direct.RemovePath(id) })
	n.reReplicateTo(id, c)
}

func (n *Node) readPeer(ps *peerState) {
	// Pipeline a few reads rather than serializing on one: a read lost
	// to the fabric is then overtaken by the next, whose sequence NAK
	// repairs the gap within a round-trip instead of a full
	// retransmission timeout — which would outlast the liveness window
	// and flap the failure detector.
	const maxOutstandingReads = 4
	if ps.conn == nil || ps.reads >= maxOutstandingReads || ps.conn.QP.State() != rnic.StateReady {
		return
	}
	ps.reads++
	slot := ps.readSeq % len(ps.readBufs)
	ps.readSeq++
	buf := ps.readBufs[slot]
	if buf == nil {
		buf = make([]byte, controlRegionBytes)
		ps.readBufs[slot] = buf
	}
	err := ps.conn.QP.PostRead(buf, ps.conn.RemoteVA, ps.conn.RemoteRKey, func(err error) {
		ps.reads--
		if err != nil {
			return
		}
		hb := binary.BigEndian.Uint64(buf[ctrlHeartbeat*8:])
		if hb != ps.lastHB {
			ps.lastHB = hb
			ps.lastNew = n.k.Now()
			ps.everSeen = true
		}
		ps.term = binary.BigEndian.Uint64(buf[ctrlTerm*8:])
		ps.lastIndex = binary.BigEndian.Uint64(buf[ctrlLastIndex*8:])
		ps.lastTerm = binary.BigEndian.Uint64(buf[ctrlLastTerm*8:])
		ps.commit = binary.BigEndian.Uint64(buf[ctrlCommit*8:])
		ps.ringOff = binary.BigEndian.Uint64(buf[ctrlRingOff*8:])
		if ps.term > n.maxSeen {
			n.maxSeen = ps.term
		}
	})
	if err != nil {
		ps.reads--
	}
}

// peerAlive applies the liveness rule.
func (n *Node) peerAlive(ps *peerState) bool {
	if !ps.everSeen {
		// Give peers a grace period at startup before declaring them dead.
		return n.k.Now()-n.startAt < 20*LivenessTimeout
	}
	return n.k.Now()-ps.lastNew < LivenessTimeout
}

// evaluate runs the election rule: the leader is the live machine with
// the lowest identifier.
func (n *Node) evaluate() {
	minID := n.self.ID
	for _, ps := range n.peerOrder {
		if n.peerAlive(ps) && ps.peer.ID < minID {
			minID = ps.peer.ID
		}
	}
	if minID != n.leaderID {
		n.leaderChanged(minID)
	}
}

// leaderChanged reacts to a new election outcome.
func (n *Node) leaderChanged(newID int) {
	n.Stats.ViewChanges++
	n.mLeaderChanges.Inc()
	n.leaderID = newID
	if n.OnLeaderChange != nil {
		n.OnLeaderChange(n.term, newID)
	}
	if newID == n.self.ID {
		if n.role == RoleFollower {
			n.startTakeover()
		}
		return
	}
	if n.role != RoleFollower {
		n.stepDown(ErrLostLeadership)
	}
	n.fenceTo(newID)
}

// fenceTo reconfigures log write permission for the new leader and
// revokes the queue pairs of every other group owner.
func (n *Node) fenceTo(leaderID int) {
	leaderAddr := n.addrOf(leaderID)
	allowed := append([]simnet.Addr{leaderAddr}, n.extraWriters...)
	n.logMR.RestrictWriter(allowed...)
	owners := make([]simnet.Addr, 0, len(n.inbound))
	for owner := range n.inbound {
		if owner != leaderAddr {
			owners = append(owners, owner)
		}
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, owner := range owners {
		for _, qp := range n.inbound[owner] {
			n.nic.DestroyQP(qp)
		}
		delete(n.inbound, owner)
	}
}

// consumeInbound drains the log entries a write of length bytes at off
// completed (the replica's polling thread in the real system).
func (n *Node) consumeInbound(off, length int) {
	if n.role == RoleLeader {
		return // leaders append locally; nothing arrives by RDMA
	}
	if n.consumer.PollWrite(off, length) > 0 {
		n.lastIndex = n.consumer.NextIndex() - 1
		n.lastTerm = n.consumer.LastTerm()
		if c := n.consumer.CommitIndex(); c > n.commitIndex {
			n.commitIndex = c
		}
		n.ring.SetOffset(n.consumer.ReadOffset())
		n.applyUpTo(n.commitIndex)
		n.publishState()
	}
}

// applyUpTo delivers every pending entry covered by the commit index to
// the state machine, in index order, exactly once.
func (n *Node) applyUpTo(commit uint64) {
	for n.pendingApply.Len() > 0 && n.pendingApply.Front().Index <= commit {
		e := n.pendingApply.PopFront()
		if e.Index <= n.appliedIdx {
			continue
		}
		n.appliedIdx = e.Index
		if e.IsNoop() {
			continue
		}
		if n.OnApply != nil {
			n.OnApply(e)
		}
	}
}

// EntryChecksums returns how many full-entry checksums this machine's
// log consumer has computed while validating inbound entries.
func (n *Node) EntryChecksums() uint64 { return n.consumer.checksums }

// AppliedIndex returns the highest applied entry index.
func (n *Node) AppliedIndex() uint64 { return n.appliedIdx }
