package mu

import "encoding/binary"

// Adaptive proposal batching (leader side).
//
// The leader's RDMA pipeline admits a bounded number of in-flight log
// entries (Config.MaxInflight); past that point, posting more writes
// only queues them at the NIC while still paying the per-entry CPU and
// header overhead. Instead, once the pipeline is saturated the leader
// parks incoming proposals in a queue and later coalesces the whole
// queue into one FlagBatch entry. The queue flushes adaptively:
//
//   - when a commit frees a pipeline slot (drainCommits),
//   - when it reaches BatchMaxOps operations or BatchMaxBytes bytes,
//   - or when the oldest queued operation has waited BatchMaxDelay.
//
// While the pipeline has free slots and nothing is queued, Propose
// takes the exact pre-batching path: one operation, one entry, byte-
// identical wire format. Unsaturated workloads therefore keep their
// deterministic event fingerprints and the zero-alloc steady state.
//
// A FlagBatch payload is the concatenation of framed operations, each
// a big-endian u32 length followed by the operation bytes. Entries
// commit as one unit; completion fans out to every operation's done
// callback in queue order, and appliers walk the frame with BatchIter.

// batchOpHeaderBytes is the per-operation framing overhead inside a
// FlagBatch payload.
const batchOpHeaderBytes = 4

// defaultMaxInflight backs Config.MaxInflight when unset.
const defaultMaxInflight = 16

// BatchIter walks the operations of a FlagBatch entry payload in
// order. It is a value type so iteration allocates nothing:
//
//	it := NewBatchIter(e.Data)
//	for it.Next() {
//	    apply(it.Op())
//	}
//
// Op's slice aliases the payload and follows the same lifetime rule as
// the entry's Data.
type BatchIter struct {
	rest []byte
	op   []byte
}

// NewBatchIter returns an iterator over a FlagBatch payload.
func NewBatchIter(data []byte) BatchIter { return BatchIter{rest: data} }

// Next advances to the next operation, reporting whether one exists.
// A truncated or corrupt frame terminates iteration.
func (it *BatchIter) Next() bool {
	if len(it.rest) < batchOpHeaderBytes {
		it.op = nil
		return false
	}
	n := int(binary.BigEndian.Uint32(it.rest))
	if n < 0 || len(it.rest)-batchOpHeaderBytes < n {
		it.op = nil
		return false
	}
	it.op = it.rest[batchOpHeaderBytes : batchOpHeaderBytes+n]
	it.rest = it.rest[batchOpHeaderBytes+n:]
	return true
}

// Op returns the current operation's bytes (valid after Next reported
// true; aliases the payload).
func (it *BatchIter) Op() []byte { return it.op }

// BatchOpCount counts the framed operations in a FlagBatch payload.
func BatchOpCount(data []byte) int {
	it := NewBatchIter(data)
	n := 0
	for it.Next() {
		n++
	}
	return n
}

// batchedOp is one queued proposal awaiting a flush. data is a pooled
// copy of the caller's bytes (Propose lets callers reuse their buffers
// immediately).
type batchedOp struct {
	data []byte
	done func(error)
}

// batchingEnabled reports whether the adaptive batcher may coalesce.
func (n *Node) batchingEnabled() bool { return n.cfg.BatchMaxOps > 1 }

// maxInflight returns the saturation threshold for direct proposals.
func (n *Node) maxInflight() int {
	if n.cfg.MaxInflight > 0 {
		return n.cfg.MaxInflight
	}
	return defaultMaxInflight
}

// enqueueBatch parks one proposal in the batch queue, flushing when a
// size bound is hit and arming the age-bound timer otherwise.
func (n *Node) enqueueBatch(data []byte, done func(error)) {
	buf := n.k.Buffers().Clone(data)
	n.batchQ = append(n.batchQ, batchedOp{data: buf, done: done})
	n.batchBytes += batchOpHeaderBytes + len(buf)
	if len(n.batchQ) >= n.cfg.BatchMaxOps || n.batchBytes >= BatchMaxBytes {
		n.flushBatch()
		return
	}
	if !n.batchArmed {
		n.batchArmed = true
		seq := n.batchSeq
		n.k.Schedule(n.cfg.BatchMaxDelay, func() {
			// A flush (any trigger) or a view change bumped the sequence:
			// this timer's queue generation is gone.
			if n.batchSeq != seq || n.role != RoleLeader {
				return
			}
			n.flushBatch()
		})
	}
}

// maybeFlushBatch flushes the queue when the pipeline has a free slot
// (called after commits retire proposals).
func (n *Node) maybeFlushBatch() {
	if len(n.batchQ) > 0 && len(n.proposals) < n.maxInflight() {
		n.flushBatch()
	}
}

// flushBatch proposes the whole queue as one entry. A single queued
// operation degrades to a plain (non-batch) entry.
func (n *Node) flushBatch() {
	n.batchSeq++
	n.batchArmed = false
	m := len(n.batchQ)
	if m == 0 || n.role != RoleLeader {
		return
	}
	n.mBatchOps.Observe(int64(m))
	if m == 1 {
		op := n.batchQ[0]
		n.resetBatchQ()
		n.proposeEntry(op.data, 0, op.done)
		n.k.Buffers().Put(op.data)
		return
	}
	// batchBytes is the length of the framed ops written below, so they
	// fill every byte of the payload.
	payload := n.k.Buffers().GetUnzeroed(n.batchBytes)
	off := 0
	for i := range n.batchQ {
		op := n.batchQ[i].data
		binary.BigEndian.PutUint32(payload[off:], uint32(len(op)))
		copy(payload[off+batchOpHeaderBytes:], op)
		off += batchOpHeaderBytes + len(op)
	}
	n.proposeBatch(payload)
	// proposeBatch copied the payload into the ring/cache and took the
	// done callbacks; everything pooled goes back.
	for i := range n.batchQ {
		n.k.Buffers().Put(n.batchQ[i].data)
	}
	n.k.Buffers().Put(payload)
	n.resetBatchQ()
}

// proposeBatch appends one FlagBatch entry carrying the queued
// operations and dispatches it. Commit fans out to every operation's
// callback in queue order (drainCommits).
func (n *Node) proposeBatch(payload []byte) {
	e := Entry{
		Term:        uint32(n.term),
		PrevTerm:    n.lastTerm,
		Index:       n.lastIndex + 1,
		CommitIndex: n.commitIndex,
		Flags:       FlagBatch,
		Data:        payload,
	}
	off, markOff := n.appendLocal(&e)
	ops := uint64(len(n.batchQ))
	n.Stats.Proposed += ops
	n.mProposed.Add(ops)
	n.mGroupProposed.Add(ops)
	p := n.propFree.Get()
	p.index = e.Index
	p.bytes = n.recent.slot(e.Index).bytes
	p.off = off
	p.markOff = markOff
	p.needed, p.got = 0, 0
	p.committed = false
	p.noop = false
	p.done = nil
	for i := range n.batchQ {
		p.dones = append(p.dones, n.batchQ[i].done)
	}
	p.proposedAt = n.k.Now()
	p.trace = n.otr.Begin(n.oc, n.nic.Shard(), false, true, len(n.batchQ), len(p.bytes))
	n.maxDataIdx = e.Index
	n.sentCommit = e.CommitIndex
	n.pendingApply.Push(Entry{
		Term:  e.Term,
		Index: e.Index,
		Flags: e.Flags,
		Data:  entryData(p.bytes),
	})
	n.proposals[p.index] = p
	n.dispatch(p)
}

// failBatchQ fails every queued-but-unflushed operation (view change).
func (n *Node) failBatchQ(cause error) {
	n.batchSeq++
	n.batchArmed = false
	for i := range n.batchQ {
		if n.batchQ[i].done != nil {
			n.batchQ[i].done(cause)
		}
		n.k.Buffers().Put(n.batchQ[i].data)
	}
	n.resetBatchQ()
}

func (n *Node) resetBatchQ() {
	for i := range n.batchQ {
		n.batchQ[i] = batchedOp{}
	}
	n.batchQ = n.batchQ[:0]
	n.batchBytes = 0
}
