package mu

import (
	"encoding/binary"
	"sort"

	"p4ce/internal/cm"
	"p4ce/internal/sim"
)

// sortedConnIDs returns the ids of a connection map in ascending order,
// so loops that emit network events stay deterministic under seeded
// replay (Go randomizes map iteration).
func sortedConnIDs(conns map[int]*cm.Conn) []int {
	ids := make([]int, 0, len(conns))
	for id := range conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// startTakeover begins the view change on the machine that just became
// the lowest live identifier. The takeover delay aggregates the
// queue-pair permission reconfiguration Mu charges to leader election
// (0.9 ms in Table IV).
func (n *Node) startTakeover() {
	n.role = RoleElecting
	if n.maxSeen > n.term {
		n.term = n.maxSeen
	}
	n.term++
	n.maxSeen = n.term
	n.publishState()
	n.takeoverSeq++
	seq := n.takeoverSeq
	n.k.Schedule(n.cfg.LeaderTakeoverDelay, func() {
		if n.crashed || n.role != RoleElecting || n.takeoverSeq != seq || n.leaderID != n.self.ID {
			return
		}
		n.dialReplicas(seq)
	})
}

// dialReplicas opens the replication connections. A majority of grants
// (the leader counts toward it) lets the takeover proceed.
func (n *Node) dialReplicas(seq int) {
	var (
		answers  int
		finished bool
		granted  = make(map[int]*cm.Conn)
		targets  []*peerState
	)
	for _, ps := range n.peerOrder {
		if n.peerAlive(ps) {
			targets = append(targets, ps)
		}
	}
	majority := n.ClusterSize()/2 + 1 // machines, the leader included
	if 1+len(targets) < majority {
		n.abortTakeover()
		return
	}
	priv := make([]byte, 13)
	priv[0] = dialKindRepl
	binary.BigEndian.PutUint64(priv[1:9], n.term)
	binary.BigEndian.PutUint32(priv[9:13], uint32(n.self.ID))
	finish := func() {
		if finished || n.crashed || n.takeoverSeq != seq || n.role != RoleElecting {
			return
		}
		finished = true
		if len(granted)+1 < majority {
			n.abortTakeover()
			return
		}
		n.catchUp(seq, granted)
	}
	for _, ps := range targets {
		ps := ps
		n.agent.Dial(ps.peer.Addr, priv, func(c *cm.Conn, err error) {
			answers++
			if err == nil {
				if finished {
					// A grant that arrived after the takeover proceeded:
					// fold the replica in rather than leak the connection.
					if n.role == RoleLeader && n.takeoverSeq == seq {
						n.addReplPath(ps.peer.ID, c)
					} else {
						n.nic.DestroyQP(c.QP)
					}
				} else {
					granted[ps.peer.ID] = c
				}
			}
			// Proceed as soon as a majority granted — a dead target must
			// not stall the view change for its full dial timeout — or
			// once every answer is in.
			if len(granted)+1 >= majority || answers == len(targets) {
				finish()
			}
		})
	}
}

func (n *Node) abortTakeover() {
	n.role = RoleFollower
	// Forget the verdict so the next monitor pass re-evaluates.
	n.leaderID = -1
}

// catchUp adopts the longest log among the granted majority, brings
// laggards up to date, and switches the node into active leadership
// (the view-change procedure P4CE inherits from Mu, §III).
func (n *Node) catchUp(seq int, granted map[int]*cm.Conn) {
	// Pick the most advanced machine among self and granted peers, using
	// the control-region values the monitor keeps fresh.
	bestID := n.self.ID
	bestTerm, bestIndex := uint64(n.lastTerm), n.lastIndex
	for _, id := range sortedConnIDs(granted) {
		ps := n.peerStates[id]
		if ps.lastTerm > bestTerm || (ps.lastTerm == bestTerm && ps.lastIndex > bestIndex) {
			bestID, bestTerm, bestIndex = id, ps.lastTerm, ps.lastIndex
		}
	}
	if bestID == n.self.ID || bestIndex <= n.lastIndex {
		n.finishTakeover(seq, granted)
		return
	}
	// Read only the bytes the advanced peer has that this machine lacks:
	// its ring between this machine's offset and the peer's published
	// write offset (at most two chunks when it wraps). Reading the whole
	// ring would hog the donor's uplink long enough to trip everyone
	// else's failure detectors.
	ps := n.peerStates[bestID]
	if ps.conn == nil || ps.logLen == 0 {
		n.finishTakeover(seq, granted)
		return
	}
	myOff := n.ring.Offset()
	donorOff := int(ps.ringOff)
	type chunk struct{ off, length int }
	var chunks []chunk
	switch {
	case donorOff > myOff:
		chunks = []chunk{{myOff, donorOff - myOff}}
	case donorOff < myOff:
		chunks = []chunk{{myOff, int(ps.logLen) - myOff}, {0, donorOff}}
	default:
		// Identical offsets with a longer log should not happen without
		// a full ring lap; adopt nothing rather than read 4 MB blind.
		n.finishTakeover(seq, granted)
		return
	}
	// The suffix is scanned against a snapshot of this machine's own
	// ring with the donor's missing ranges patched in.
	snapshot := append([]byte(nil), n.logBuf...)
	pending := 0
	failed := false
	finish := func() {
		if failed || n.crashed || n.takeoverSeq != seq || n.role != RoleElecting {
			n.abortTakeover()
			return
		}
		scan := NewConsumer(snapshot, n.lastIndex+1)
		// The donor's first missing entry chains off this machine's own
		// last entry (both extend the same prefix).
		scan.seek(myOff, n.lastIndex+1, n.lastTerm)
		scan.OnReceive = func(e Entry) { n.adoptEntry(&e) }
		scan.Poll()
		n.finishTakeover(seq, granted)
	}
	for _, c := range chunks {
		if c.length <= 0 {
			continue
		}
		pending++
		c := c
		err := ps.conn.QP.PostRead(snapshot[c.off:c.off+c.length], ps.logVA+uint64(c.off), ps.logRKey, func(err error) {
			if err != nil {
				failed = true
			}
			n.Stats.CatchUpBytes += uint64(c.length)
			pending--
			if pending == 0 {
				finish()
			}
		})
		if err != nil {
			failed = true
			pending--
		}
	}
	if pending == 0 {
		finish()
	}
}

// finishTakeover installs the replication paths, re-replicates whatever
// the laggards are missing, and opens the new view with a no-op entry.
func (n *Node) finishTakeover(seq int, granted map[int]*cm.Conn) {
	if n.crashed || n.takeoverSeq != seq || n.role != RoleElecting {
		return
	}
	n.direct = NewDirectTransport(n.ClusterSize())
	n.replConns = make(map[int]*cm.Conn, len(granted))
	n.role = RoleLeader
	n.firstOwnIdx = n.lastIndex + 1 // the new-view no-op
	for _, id := range sortedConnIDs(granted) {
		n.addReplPath(id, granted[id])
	}
	n.fenceTo(n.self.ID)
	n.publishState()
	if n.OnBecameLeader != nil {
		n.OnBecameLeader()
	}
	// Open the view: a no-op announces the term and commits the adopted
	// suffix once f replicas acknowledge it.
	n.proposeEntry(nil, FlagNoop, nil)
}

// adoptEntry folds a catch-up entry into the local log and the apply
// queue.
func (n *Node) adoptEntry(e *Entry) {
	n.appendLocal(e)
	// Queue against the cache copy appendLocal just made, not against
	// the catch-up snapshot the scan is iterating.
	queued := *e
	queued.Data = entryData(n.recent.slot(e.Index).bytes)
	n.pendingApply.Push(queued)
}

// reReplicateTo writes every cached entry the peer is missing. Writes
// are ordered on the queue pair, so subsequent proposals land after.
func (n *Node) reReplicateTo(id int, c *cm.Conn) {
	ps := n.peerStates[id]
	if n.suffixDiverged(ps) {
		// The peer's tail is not a prefix of this log: a plain rewrite
		// from lastIndex+1 would leave its stale suffix in place (and,
		// worse, realign the ring so the stale entries later apply).
		n.repairReplica(ps, c)
		return
	}
	if ps.lastIndex >= n.lastIndex {
		return
	}
	from := ps.lastIndex + 1
	if low := n.lowestCached(); from < low {
		// Too far behind the window: exclude (snapshots out of scope).
		n.direct.RemovePath(id)
		return
	}
	// The peer's log is a prefix of this one, so its ring ends where
	// entry from-1 ends in this layout.
	n.writeCached(id, c, from, int(ps.ringOff))
}

// writeCached writes the cached entries from from through lastIndex to
// replica id at their home offsets, with a wrap marker wherever they
// cross the end of the ring; prevEnd is where the replica's bytes before
// entry from end (-1 when that is not known). It excludes the replica at
// the first entry the cache no longer holds.
func (n *Node) writeCached(id int, c *cm.Conn, from uint64, prevEnd int) {
	for idx := from; idx <= n.lastIndex; idx++ {
		ent, ok := n.recent.get(idx)
		if !ok {
			n.direct.RemovePath(id)
			return
		}
		if prevEnd >= 0 && ent.off < prevEnd && len(n.logBuf)-prevEnd >= 4 {
			_ = c.QP.PostWrite(WrapMarkBytes(), c.RemoteVA+uint64(prevEnd), c.RemoteRKey, nil)
		}
		_ = c.QP.PostWrite(ent.bytes, c.RemoteVA+uint64(ent.off), c.RemoteRKey, nil)
		prevEnd = ent.off + len(ent.bytes)
	}
}

// suffixDiverged reports whether the replica's published log tail is
// provably not a prefix of this leader's log: it claims entries beyond
// the leader's last index, or its last entry's term differs from the
// leader's entry at the same index. The values come from asynchronous
// control-region reads, so staleness can delay detection or produce a
// false positive — both are benign: repairs rewind to the replica's
// committed prefix, which is byte-identical on every machine, and
// rewrite it with the leader's own entries, so a redundant repair
// writes the bytes the replica already holds.
func (n *Node) suffixDiverged(ps *peerState) bool {
	if ps.lastIndex == 0 {
		return false
	}
	if ps.lastIndex > n.lastIndex {
		return true
	}
	ent, ok := n.recent.get(ps.lastIndex)
	if !ok {
		return false // below the cache window: not checkable here
	}
	e, _, st := decodeEntry(ent.bytes, 0)
	if st != entryValid {
		return false
	}
	return uint64(e.Term) != ps.lastTerm
}

// repairMinInterval rate-limits divergence repairs per replica: the
// control-region reads that would clear the verdict lag a repair by
// several round-trips, so the stale verdict would otherwise re-trigger
// the (idempotent, but not free) rewrite every monitor tick.
const repairMinInterval = sim.Millisecond

// repairReplica rewinds a diverged replica to its committed prefix and
// rewrites the leader's suffix over the stale one. Committed entries
// are byte-identical on every machine, so the replica's ring layout
// matches the leader's through its commit index; everything after it is
// replaced. Three ordered write groups on the replication queue pair:
//
//  1. Zero the stale region — no divergent entry may survive with a
//     valid CRC where the consumer could later mistake it for fresh.
//  2. A rewind marker at the replica's consume position, directing its
//     consumer back to the end of the committed prefix. The (term, seq)
//     identity makes leftover markers inert (Consumer.processRewind).
//  3. The leader's entries from the rewind point on, at their home
//     offsets, with wrap markers reconstructed between them.
//
// Replicas whose rewind point fell out of the re-replication cache are
// excluded like any deep laggard (snapshots out of scope).
func (n *Node) repairReplica(ps *peerState, c *cm.Conn) {
	if ps.lastRepair != 0 && n.k.Now()-ps.lastRepair < repairMinInterval {
		return
	}
	id := ps.peer.ID
	target := ps.commit + 1
	logLen := int(ps.logLen)
	if ps.commit > n.lastIndex || logLen != len(n.logBuf) || target < n.lowestCached() {
		n.direct.RemovePath(id)
		return
	}
	var keptTerm uint32
	if ps.commit > 0 {
		ent, ok := n.recent.get(ps.commit)
		if !ok {
			n.direct.RemovePath(id)
			return
		}
		e, _, st := decodeEntry(ent.bytes, 0)
		if st != entryValid {
			n.direct.RemovePath(id)
			return
		}
		keptTerm = e.Term
	}
	// Ring offset of entry target in this leader's layout — identical to
	// the replica's, since both built the same committed prefix.
	var tOff int
	if target <= n.lastIndex {
		ent, ok := n.recent.get(target)
		if !ok {
			n.direct.RemovePath(id)
			return
		}
		tOff = ent.off
	} else {
		tOff = n.ring.Offset()
	}
	staleEnd := int(ps.ringOff)
	if staleEnd == tOff {
		// Equal offsets with a divergence verdict mean a full ring lap of
		// stale bytes — unrecoverable from the cache.
		n.direct.RemovePath(id)
		return
	}
	ps.lastRepair = n.k.Now()
	n.Stats.SuffixRepairs++
	zero := func(off, length int) {
		if length > 0 {
			_ = c.QP.PostWrite(make([]byte, length), c.RemoteVA+uint64(off), c.RemoteRKey, nil)
		}
	}
	if staleEnd > tOff {
		zero(tOff, staleEnd-tOff)
	} else {
		zero(tOff, logLen-tOff)
		zero(0, staleEnd)
	}
	n.rewindSeq++
	mark := EncodeRewindMark(target, keptTerm, tOff, uint32(n.term), n.rewindSeq)
	markOff := staleEnd
	if markOff+rewindMarkBytes > logLen {
		// No room for the marker at the consume position: wrap it to
		// offset zero the same way entries wrap.
		if logLen-markOff >= 4 {
			_ = c.QP.PostWrite(WrapMarkBytes(), c.RemoteVA+uint64(markOff), c.RemoteRKey, nil)
		}
		markOff = 0
	}
	_ = c.QP.PostWrite(mark, c.RemoteVA+uint64(markOff), c.RemoteRKey, nil)
	n.writeCached(id, c, target, -1)
}

// lowestCached is the oldest index the re-replication cache may hold:
// the higher of the count bound's edge and the byte bound's.
func (n *Node) lowestCached() uint64 {
	low := max(n.recent.low, 1)
	if n.lastIndex >= CatchUpWindow {
		low = max(low, n.lastIndex-CatchUpWindow+1)
	}
	return low
}

// discardUncommittedSuffix rewinds the log to the committed prefix.
//
// A deposed leader may hold entries it appended during its own view
// that never reached a quorum. Keeping them would poison every
// offset-based mechanism downstream: the catch-up chunk read patches
// the donor's ring starting at the local write offset, and a new
// leader's replication writes land at ring offsets computed over its
// own layout — both assume this machine's log is a byte-exact prefix
// of the new leader's. Entries at or below the commit index are held
// by a quorum and identical on every machine, so the committed prefix
// is exactly the safe rewind point; anything beyond it is discarded
// and, if it did survive on f replicas, comes back via catch-up from
// the next leader's log.
func (n *Node) discardUncommittedSuffix() {
	if n.lastIndex <= n.commitIndex {
		return
	}
	off, lastTerm := 0, uint32(0)
	if n.commitIndex > 0 {
		ent, ok := n.recent.get(n.commitIndex)
		if !ok {
			// The tail of the committed prefix fell out of the cache
			// window: no precise rewind point. Keep the suffix rather
			// than corrupt the ring position.
			return
		}
		e, _, _, decOK := DecodeEntryAt(ent.bytes, 0)
		if !decOK {
			return
		}
		off = ent.off + len(ent.bytes)
		lastTerm = e.Term
	}
	// The dropped pendingApply entries alias these cache buffers; filter
	// the queue first, then recycle.
	commit := n.commitIndex
	n.pendingApply.Filter(func(e *Entry) bool { return e.Index <= commit })
	for idx := n.commitIndex + 1; idx <= n.lastIndex; idx++ {
		if ent, ok := n.recent.del(idx); ok {
			n.k.Buffers().Put(ent.bytes)
		}
	}
	n.lastIndex = n.commitIndex
	n.lastTerm = lastTerm
	if n.maxDataIdx > n.commitIndex {
		n.maxDataIdx = n.commitIndex
	}
	n.ring.SetOffset(off)
	n.publishState()
}

// stepDown abandons leadership, failing whatever was in flight.
func (n *Node) stepDown(cause error) {
	if n.role == RoleFollower {
		return
	}
	n.role = RoleFollower
	if n.leaderID == n.self.ID {
		// The node deposed itself (lost quorum): forget the verdict so
		// the monitor can re-run the election once peers are reachable.
		n.leaderID = -1
	}
	for _, id := range sortedConnIDs(n.replConns) {
		n.nic.DestroyQP(n.replConns[id].QP)
	}
	n.replConns = make(map[int]*cm.Conn)
	n.direct = nil
	n.preferred = nil
	flushed := n.proposals
	n.proposals = make(map[uint64]*proposal)
	idxs := make([]uint64, 0, len(flushed))
	for idx := range flushed {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		p := flushed[idx]
		if !p.committed {
			if p.done != nil {
				p.done(cause)
			}
			for i := range p.dones {
				if d := p.dones[i]; d != nil {
					d(cause)
				}
			}
		}
		// Traces of flushed proposals never reach Finish (even committed
		// ones removed here before draining): release their state.
		n.otr.Abort(p.trace)
		n.putProposal(p)
	}
	// Operations still queued behind the flushed proposals fail too.
	n.failBatchQ(cause)
	// Drop the uncommitted suffix, then resume consuming as a replica
	// from the (rewound) ring position: the next leader's writes land
	// right after the committed prefix this machine kept.
	n.discardUncommittedSuffix()
	n.consumer.seek(n.ring.Offset(), n.lastIndex+1, n.lastTerm)
	if n.OnLostLeader != nil {
		n.OnLostLeader()
	}
}

// Propose replicates a client value. done fires with nil once the value
// is decided (f replica acknowledgments), or with an error if the value
// must be retried on the new leader.
//
// While the RDMA pipeline has a free slot and nothing is queued, the
// value becomes its own log entry immediately — the classic path.
// Under saturation the adaptive batcher queues it and later coalesces
// the queue into one FlagBatch entry (see batch.go); the value bytes
// are copied either way, so callers may reuse their buffers.
func (n *Node) Propose(data []byte, done func(error)) error {
	if n.role != RoleLeader {
		return ErrNotLeader
	}
	if !n.batchingEnabled() || (len(n.batchQ) == 0 && len(n.proposals) < n.maxInflight()) {
		n.mBatchOps.Observe(1)
		n.proposeEntry(data, 0, done)
		return nil
	}
	n.enqueueBatch(data, done)
	return nil
}

// proposeEntry appends locally, then drives the transport.
func (n *Node) proposeEntry(data []byte, flags uint8, done func(error)) {
	e := Entry{
		Term:        uint32(n.term),
		PrevTerm:    n.lastTerm,
		Index:       n.lastIndex + 1,
		CommitIndex: n.commitIndex,
		Flags:       flags,
		Data:        data,
	}
	off, markOff := n.appendLocal(&e)
	n.Stats.Proposed++
	n.mProposed.Inc()
	n.mGroupProposed.Inc()
	p := n.propFree.Get()
	p.index = e.Index
	p.bytes = n.recent.slot(e.Index).bytes
	p.off = off
	p.markOff = markOff
	p.needed, p.got = 0, 0
	p.committed = false
	p.noop = flags&FlagNoop != 0
	p.done = done
	p.proposedAt = n.k.Now()
	p.trace = n.otr.Begin(n.oc, n.nic.Shard(), p.noop, false, 1, len(p.bytes))
	if flags&FlagNoop == 0 {
		n.maxDataIdx = e.Index
	}
	n.sentCommit = e.CommitIndex
	// Queue for application on commit. The payload references the
	// encoded copy, so callers may reuse their buffers.
	n.pendingApply.Push(Entry{
		Term:  e.Term,
		Index: e.Index,
		Flags: e.Flags,
		Data:  entryData(p.bytes),
	})
	n.proposals[p.index] = p
	n.dispatch(p)
}

// transportFor picks the accelerated transport when it is usable.
func (n *Node) transportFor() Transport {
	if n.preferred != nil && n.preferred.Ready() {
		return n.preferred
	}
	return n.direct
}

// dispatch drives one proposal through the current transport, charging
// the leader's CPU for request generation and acknowledgment handling.
// The drive's state travels in a pooled dispatchCtx instead of closures,
// so the steady-state path allocates nothing.
func (n *Node) dispatch(p *proposal) {
	t := n.transportFor()
	if t == nil || !t.Ready() {
		n.stepDown(ErrLostQuorum)
		return
	}
	p.gen++
	p.needed = t.AcksNeeded()
	p.got = 0
	ctx := n.getDispatchCtx()
	ctx.p, ctx.t, ctx.gen, ctx.remaining = p, t, p.gen, 0
	// Building and posting the work requests costs CPU per request —
	// this is the §V-C bottleneck.
	n.cpu.DoArg(n.cfg.CPUPostCost*sim.Time(t.Requests()), n.postFn, ctx)
}

// nopAck discards wrap-marker acknowledgments (the entry's own
// acknowledgments carry the commit decision).
var nopAck = func(error) {}

// postStep runs after the CPU charged the request-generation cost: it
// hands the entry to the transport. Each acknowledgment comes back
// through ackStep; a synchronous transport failure is accounted the
// same way, as the single expected event.
func (n *Node) postStep(a any) {
	ctx := a.(*dispatchCtx)
	p, t := ctx.p, ctx.t
	if n.role != RoleLeader || p.gen != ctx.gen {
		n.putDispatchCtx(ctx)
		return
	}
	if p.markOff >= 0 {
		// The ring wrapped: replicate the wrap marker first (ordered
		// ahead of the entry on every path). Markers are protocol
		// plumbing, not operations, so they ride untraced.
		_ = t.Replicate(WrapMarkBytes(), p.markOff, 0, nopAck)
	}
	// Count expected acknowledgment events before Replicate runs: paths
	// failing synchronously inside it still fire the callback once, but
	// drop out of AcksExpected immediately.
	ctx.remaining = t.AcksExpected()
	if err := t.Replicate(p.bytes, p.off, p.trace, ctx.ackFn); err != nil {
		ctx.remaining = 1
		n.ackFinish(ctx, err)
	}
}

// ackStep runs after the CPU charged the acknowledgment-handling cost.
func (n *Node) ackStep(a any) {
	evt := a.(*ackEvt)
	ctx, err := evt.ctx, evt.err
	n.putAckEvt(evt)
	n.ackFinish(ctx, err)
}

// ackFinish accounts one acknowledgment event and recycles the context
// once the transport delivered everything it promised.
func (n *Node) ackFinish(ctx *dispatchCtx, err error) {
	n.onAck(ctx, err)
	ctx.remaining--
	if ctx.remaining <= 0 {
		n.putDispatchCtx(ctx)
	}
}

// onAck applies one acknowledgment event to its proposal. A context
// whose generation no longer matches (the proposal was re-driven by a
// fallback, completed, or recycled) is inert.
func (n *Node) onAck(ctx *dispatchCtx, err error) {
	p, t := ctx.p, ctx.t
	if n.role != RoleLeader || p.committed || p.gen != ctx.gen {
		return
	}
	if err != nil {
		if t == n.preferred {
			n.fallback()
			return
		}
		// A direct path failed; the transport already dropped it. Check
		// we still have a quorum of paths at all.
		if n.direct != nil && !n.direct.Ready() {
			n.stepDown(ErrLostQuorum)
		}
		return
	}
	p.got++
	if p.got >= p.needed {
		p.committed = true
		n.drainCommits()
	}
}

// Fallback abandons the accelerated transport and re-drives every
// uncommitted proposal through the direct one. Engines call it when
// they detect the switch path failing out-of-band (e.g. a queue pair
// timeout between proposals).
func (n *Node) Fallback() { n.fallback() }

// fallback reverts to un-accelerated communication: every uncommitted
// proposal is re-driven through the direct transport, in log order
// (§III, "Faulty replica" / "Faulty switch").
func (n *Node) fallback() {
	if n.preferred == nil {
		return
	}
	n.Stats.Fallbacks++
	n.mFallbacks.Inc()
	n.preferred = nil
	if n.OnFallback != nil {
		n.OnFallback()
	}
	idxs := make([]uint64, 0, len(n.proposals))
	for idx, p := range n.proposals {
		if !p.committed {
			idxs = append(idxs, idx)
		}
	}
	sortUint64s(idxs)
	for _, idx := range idxs {
		n.dispatch(n.proposals[idx])
	}
}

// drainCommits advances the commit index over the contiguous committed
// prefix, completing proposals in order. The first committed proposal of
// a leadership also commits the adopted prefix before it: acknowledging
// the new-view no-op means f replicas hold everything the queue pair
// ordered ahead of it.
func (n *Node) drainCommits() {
	for {
		idx := n.commitIndex + 1
		if idx < n.firstOwnIdx {
			idx = n.firstOwnIdx
		}
		p, ok := n.proposals[idx]
		if !ok || !p.committed {
			break
		}
		n.commitIndex = p.index
		delete(n.proposals, p.index)
		ops := uint64(1)
		if len(p.dones) > 0 {
			ops = uint64(len(p.dones))
		}
		n.Stats.Committed += ops
		n.mCommitted.Add(ops)
		n.mGroupCommitted.Add(ops)
		n.mCommitLatNs.Observe(int64(n.k.Now() - p.proposedAt))
		n.mGroupCommitLatNs.Observe(int64(n.k.Now() - p.proposedAt))
		n.otr.Finish(n.oc, p.trace)
		n.applyUpTo(n.commitIndex)
		if p.done != nil {
			p.done(nil)
		}
		for i := range p.dones {
			if d := p.dones[i]; d != nil {
				d(nil)
			}
		}
		// Recycle after the completion callbacks: they may propose again
		// reentrantly, and must not be handed this very object mid-use.
		n.putProposal(p)
	}
	n.publishState()
	// Commits freed pipeline slots; give queued proposals their ride.
	n.maybeFlushBatch()
}

// entryData re-extracts the payload from an encoded entry.
func entryData(encoded []byte) []byte {
	length := binary.BigEndian.Uint32(encoded[0:4])
	if length == 0 {
		return nil
	}
	return encoded[entryHeaderBytes : entryHeaderBytes+int(length)]
}

// appendLocal encodes the entry into the local ring, updating the
// re-replication window. It returns the entry's ring offset and the
// wrap-marker offset (-1 when no wrap happened). The cache copy comes
// from the kernel's buffer pool; setRecent returns it there.
func (n *Node) appendLocal(e *Entry) (off, markOff int) {
	size := e.EncodedSize()
	bytes := n.k.Buffers().GetUnzeroed(size) // EncodeEntryInto writes every byte
	EncodeEntryInto(bytes, e)
	off, markOff, mark, err := n.ring.Place(size)
	if err != nil {
		// An entry larger than the whole log: reject at Propose level.
		panic("mu: entry exceeds log size")
	}
	if markOff >= 0 && mark {
		copy(n.logBuf[markOff:], WrapMarkBytes())
	} else {
		markOff = -1
	}
	copy(n.logBuf[off:], bytes)
	n.lastIndex = e.Index
	n.lastTerm = e.Term
	n.setRecent(e.Index, off, bytes)
	n.publishState()
	return off, markOff
}

// commitSyncTick appends a no-op when committed client entries have not
// yet been announced to the replicas (idle cluster).
func (n *Node) commitSyncTick() {
	if n.role != RoleLeader {
		return
	}
	if n.sentCommit < n.commitIndex && n.sentCommit < n.maxDataIdx {
		n.proposeEntry(nil, FlagNoop, nil)
	}
}

// sortUint64s is a tiny insertion sort (proposal sets are small).
func sortUint64s(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}
