package mu

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Entry flags.
const (
	// FlagNoop marks commit-propagation entries that carry no client data.
	FlagNoop uint8 = 1 << iota
	// FlagBatch marks entries whose Data is a concatenation of framed
	// client operations (see batch.go): the leader's adaptive batcher
	// coalesced several queued proposals into one log entry. Consumers
	// walk the frame with BatchIter and apply each operation in order.
	FlagBatch
)

// Entry is one decided (or proposed) log record.
type Entry struct {
	Term uint32
	// PrevTerm is the term of the entry immediately before this one
	// (zero for the first entry). The consumer refuses an entry whose
	// PrevTerm differs from the term it last consumed — the byte-stream
	// version of Raft's log-matching check. Without it, a write from a
	// deposed leader landing at exactly the offset the consumer expects
	// next would be accepted onto a log it does not extend.
	PrevTerm    uint32
	Index       uint64
	CommitIndex uint64 // leader's commit index when the entry was appended
	Flags       uint8
	Data        []byte
}

// IsNoop reports whether the entry is a commit bump.
func (e *Entry) IsNoop() bool { return e.Flags&FlagNoop != 0 }

// IsBatch reports whether the entry's Data frames several client
// operations (walk them with BatchIter).
func (e *Entry) IsBatch() bool { return e.Flags&FlagBatch != 0 }

const (
	entryHeaderBytes  = 4 + 4 + 4 + 8 + 8 + 1 // len, term, prevTerm, index, commit, flags
	entryTrailerBytes = 4                     // CRC-32 over header+data
	// wrapMark written in the length field tells the consumer the ring
	// wrapped to offset zero.
	wrapMark = uint32(0xFFFFFFFF)
	// rewindMark written in the length field is a rewind marker: a
	// leader found this replica's uncommitted log suffix divergent from
	// its own and is about to overwrite it (see Node.repairReplica). The
	// record directs the consumer back to the end of the committed
	// prefix before the replacement entries arrive.
	rewindMark = uint32(0xFFFFFFFE)
	// rewindMarkBytes is the fixed rewind-marker layout: mark u32,
	// target index u64, kept term u32, target offset u32, marker term
	// u32, marker sequence u32, CRC-32 u32.
	rewindMarkBytes = 32
)

// EncodeRewindMark serializes a rewind marker: the consumer should
// resume at ring offset off expecting entry index target, whose
// predecessor carries term keptTerm. (term, seq) identify the marker so
// a consumer never acts on the same (or an older) marker twice.
func EncodeRewindMark(target uint64, keptTerm uint32, off int, term, seq uint32) []byte {
	buf := make([]byte, rewindMarkBytes)
	binary.BigEndian.PutUint32(buf[0:4], rewindMark)
	binary.BigEndian.PutUint64(buf[4:12], target)
	binary.BigEndian.PutUint32(buf[12:16], keptTerm)
	binary.BigEndian.PutUint32(buf[16:20], uint32(off))
	binary.BigEndian.PutUint32(buf[20:24], term)
	binary.BigEndian.PutUint32(buf[24:28], seq)
	binary.BigEndian.PutUint32(buf[28:32], crc32.ChecksumIEEE(buf[:28]))
	return buf
}

// EncodedSize returns the ring footprint of the entry.
func (e *Entry) EncodedSize() int {
	return entryHeaderBytes + len(e.Data) + entryTrailerBytes
}

// EncodeEntry serializes the entry into a fresh buffer.
func EncodeEntry(e *Entry) []byte {
	buf := make([]byte, e.EncodedSize())
	EncodeEntryInto(buf, e)
	return buf
}

// EncodeEntryInto serializes the entry into buf, which must be at least
// EncodedSize() bytes long. The append hot path encodes into pooled
// buffers with it instead of allocating one per entry.
func EncodeEntryInto(buf []byte, e *Entry) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(e.Data)))
	binary.BigEndian.PutUint32(buf[4:8], e.Term)
	binary.BigEndian.PutUint32(buf[8:12], e.PrevTerm)
	binary.BigEndian.PutUint64(buf[12:20], e.Index)
	binary.BigEndian.PutUint64(buf[20:28], e.CommitIndex)
	buf[28] = e.Flags
	copy(buf[entryHeaderBytes:], e.Data)
	crc := crc32.ChecksumIEEE(buf[:entryHeaderBytes+len(e.Data)])
	binary.BigEndian.PutUint32(buf[entryHeaderBytes+len(e.Data):], crc)
}

// DecodeEntryAt parses the entry at off. It returns the entry and the
// offset of the next record, or ok=false when the bytes at off do not
// (yet) hold a complete valid entry. A wrap marker returns ok=false with
// wrapped=true. The returned entry's Data is a private copy.
func DecodeEntryAt(buf []byte, off int) (e Entry, next int, wrapped, ok bool) {
	e, next, st := decodeEntry(buf, off)
	if st == entryValid && len(e.Data) > 0 {
		e.Data = append([]byte(nil), e.Data...)
	}
	return e, next, st == entryWrap, st == entryValid
}

// entryStatus is what decodeEntry found at an offset.
type entryStatus uint8

const (
	// entryNone: no entry to check there — a rewind marker, or a length
	// that runs past the ring.
	entryNone entryStatus = iota
	// entryWrap: a wrap marker, or no room left for one.
	entryWrap
	// entryTorn: the entry fits but its checksum does not match (yet);
	// next is the offset just past its trailer.
	entryTorn
	// entryValid: a complete entry; next is the offset of the record
	// after it.
	entryValid
)

// decodeEntry is DecodeEntryAt without the defensive payload copy: the
// returned entry's Data aliases buf and is only valid while those bytes
// stay untouched. The consumer hot path uses it and copies into a
// pooled buffer itself. Only entryTorn and entryValid cost a checksum
// of the whole entry.
func decodeEntry(buf []byte, off int) (e Entry, next int, st entryStatus) {
	if len(buf)-off < 4 {
		return Entry{}, 0, entryWrap // implicit wrap: no room for a marker
	}
	length := binary.BigEndian.Uint32(buf[off : off+4])
	if length == wrapMark {
		return Entry{}, 0, entryWrap
	}
	if length == rewindMark {
		// A rewind marker is not an entry; only Poll (with rewinds
		// enabled) interprets it. Everyone else stops scanning here.
		return Entry{}, 0, entryNone
	}
	total := entryHeaderBytes + int(length) + entryTrailerBytes
	if int(length) > len(buf) || off+total > len(buf) {
		return Entry{}, 0, entryNone
	}
	end := off + entryHeaderBytes + int(length)
	want := binary.BigEndian.Uint32(buf[end : end+4])
	if crc32.ChecksumIEEE(buf[off:end]) != want {
		return Entry{}, off + total, entryTorn
	}
	e = Entry{
		Term:        binary.BigEndian.Uint32(buf[off+4 : off+8]),
		PrevTerm:    binary.BigEndian.Uint32(buf[off+8 : off+12]),
		Index:       binary.BigEndian.Uint64(buf[off+12 : off+20]),
		CommitIndex: binary.BigEndian.Uint64(buf[off+20 : off+28]),
		Flags:       buf[off+28],
	}
	if length > 0 {
		e.Data = buf[off+entryHeaderBytes : end]
	}
	return e, off + total, entryValid
}

// ErrLogFull reports an entry that cannot fit in the ring at all.
var ErrLogFull = errors.New("mu: entry larger than log")

// Ring is the append-side view of a log region: it assigns deterministic
// ring positions to successive entries, so the leader's local append and
// its remote writes land at identical offsets on every machine.
type Ring struct {
	size int
	off  int // next append position
}

// NewRing returns an appender over a region of the given size.
func NewRing(size int) *Ring { return &Ring{size: size} }

// Place returns the ring offset where an entry of encoded size n lands,
// and whether a wrap marker must be written at the previous position
// (markOff) first. It advances the appender.
func (r *Ring) Place(n int) (off int, markOff int, mark bool, err error) {
	if n > r.size {
		return 0, 0, false, ErrLogFull
	}
	if r.off+n > r.size {
		markOff = r.off
		mark = r.size-r.off >= 4
		r.off = 0
	} else {
		markOff = -1
	}
	off = r.off
	r.off += n
	return off, markOff, mark, nil
}

// Offset returns the next append position.
func (r *Ring) Offset() int { return r.off }

// SetOffset forces the append position (used when adopting a peer's log).
func (r *Ring) SetOffset(off int) { r.off = off }

// wrapMarkEnc holds the encoded wrap marker: big-endian 0xFFFFFFFF.
var wrapMarkEnc = [4]byte{0xFF, 0xFF, 0xFF, 0xFF}

// WrapMarkBytes returns the encoded wrap marker. The slice aliases a
// shared read-only array; callers copy or transmit it, never mutate it.
func WrapMarkBytes() []byte { return wrapMarkEnc[:] }

// entryQueue is a FIFO of entries backed by a reusable array. Popping
// with pending = pending[1:] permanently sheds capacity, so a long-lived
// queue reallocates on every lap; this queue instead advances a head
// index, zeroes freed slots (dropping their Data references), and
// rewinds to the array start whenever it drains.
type entryQueue struct {
	items []Entry
	head  int
}

// Len returns the number of queued entries.
func (q *entryQueue) Len() int { return len(q.items) - q.head }

// Push appends an entry.
func (q *entryQueue) Push(e Entry) { q.items = append(q.items, e) }

// Front returns the oldest entry without removing it.
func (q *entryQueue) Front() *Entry { return &q.items[q.head] }

// PopFront removes and returns the oldest entry.
func (q *entryQueue) PopFront() Entry {
	e := q.items[q.head]
	q.items[q.head] = Entry{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head >= 64 && q.head*2 >= len(q.items) {
		// A queue that never fully drains (a follower always holds the
		// newest uncommitted entry) would otherwise grow its slice one
		// slot per pop forever. Slide the live tail down once the dead
		// prefix dominates; amortized O(1) per pop.
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = Entry{}
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return e
}

// Filter keeps only the entries satisfying keep, preserving order.
func (q *entryQueue) Filter(keep func(*Entry) bool) {
	w := 0
	for i := q.head; i < len(q.items); i++ {
		if keep(&q.items[i]) {
			q.items[w] = q.items[i]
			w++
		}
	}
	for i := w; i < len(q.items); i++ {
		q.items[i] = Entry{}
	}
	q.items = q.items[:w]
	q.head = 0
}

// Consumer scans a log region for complete entries in order, tracking
// commit progress. Replicas drive it from the memory region's write
// notifications; the view-change procedure drives it over a snapshot it
// read from a peer.
type Consumer struct {
	buf       []byte
	readOff   int
	nextIndex uint64
	lastTerm  uint32
	commit    uint64
	pending   entryQueue // consumed but not yet committed (OnApply users)
	// allowRewind lets Poll act on rewind markers. Only a machine's live
	// consumer sets it; scan consumers (catch-up over a snapshot) must
	// treat a marker as end-of-stream instead of jumping around a buffer
	// whose owner the marker was never addressed to.
	allowRewind bool
	// markTerm/markSeq identify the last rewind marker acted on; older
	// or equal markers are leftovers awaiting overwrite and are parked
	// on, never re-processed.
	markTerm uint32
	markSeq  uint32
	// wrapFrom is the offset of the wrap marker the consumer last
	// followed to offset 0, or 0 once it has consumed an entry since. A
	// marker names no index, so it may be a leftover of an earlier lap
	// lying exactly where this lap's entries end; a next entry small
	// enough to fit there (a no-op) then lands on the marker, not at 0,
	// and Poll goes back for it.
	wrapFrom int
	// torn is set while the entry at the read offset names the next
	// index but failed its checksum: it is still landing. Its bytes
	// change only by writes, and a writer lays an entry down header
	// first and trailer last, so PollWrite skips the full decode until a
	// write touches the header or the trailer (at tornTrailer). Poll
	// clears it on entry and sets it only on the way out, so every move
	// of readOff or nextIndex inside Poll drops it; seek drops it for
	// the moves made from outside.
	torn        bool
	tornTrailer int
	// checksums counts the full-entry checksums Poll computed.
	checksums uint64

	// OnReceive fires for every entry as it becomes visible. The
	// entry's Data aliases the scanned region and is valid only for the
	// duration of the callback; retain a copy, not the slice.
	OnReceive func(Entry)
	// OnReceiveAt fires like OnReceive but also reports the entry's ring
	// offset (followers feed their re-replication cache with it). The
	// same Data-aliasing rule applies.
	OnReceiveAt func(Entry, int)
	// OnApply fires for every entry once it is covered by the commit
	// index, in index order, exactly once. Entries delivered here carry
	// private Data copies.
	OnApply func(Entry)
	// OnRewind fires after a rewind marker moved the consumer: a leader
	// declared everything from index target on divergent and will
	// rewrite it. The owner must discard its own bookkeeping for the
	// dropped suffix (apply queues, caches, append position).
	OnRewind func(target uint64, keptTerm uint32, off int)
}

// NewConsumer scans buf starting at entry index first.
func NewConsumer(buf []byte, first uint64) *Consumer {
	return &Consumer{buf: buf, nextIndex: first}
}

// NextIndex returns the next entry index the consumer expects.
func (c *Consumer) NextIndex() uint64 { return c.nextIndex }

// LastTerm returns the term of the last consumed entry.
func (c *Consumer) LastTerm() uint32 { return c.lastTerm }

// CommitIndex returns the highest commit index observed.
func (c *Consumer) CommitIndex() uint64 { return c.commit }

// ReadOffset returns the ring position of the next expected entry.
func (c *Consumer) ReadOffset() int { return c.readOff }

// seek moves the consumer to ring offset off, expecting entry index
// next whose predecessor carries term lastTerm.
func (c *Consumer) seek(off int, next uint64, lastTerm uint32) {
	c.readOff, c.wrapFrom, c.torn = off, 0, false
	c.nextIndex, c.lastTerm = next, lastTerm
}

// PollWrite is Poll for a write of n bytes that just landed at off: it
// delivers exactly what Poll would. While the entry at the read offset
// is still landing (see Consumer.torn), a write that touches neither its
// header nor its trailer cannot complete it, so PollWrite returns 0
// without checksumming the entry again.
func (c *Consumer) PollWrite(off, n int) int {
	if c.torn && !overlaps(off, n, c.readOff, entryHeaderBytes) &&
		!overlaps(off, n, c.tornTrailer, entryTrailerBytes) {
		return 0
	}
	return c.Poll()
}

// overlaps reports whether [off, off+n) and [at, at+size) intersect.
func overlaps(off, n, at, size int) bool {
	return off < at+size && at < off+n
}

// Poll scans forward from the read offset, delivering every complete
// entry. It returns how many entries were consumed.
func (c *Consumer) Poll() int {
	c.torn = false
	n := 0
	for {
		if c.allowRewind && len(c.buf)-c.readOff >= rewindMarkBytes &&
			binary.BigEndian.Uint32(c.buf[c.readOff:c.readOff+4]) == rewindMark {
			if !c.processRewind() {
				return n
			}
			continue
		}
		if c.wrapFrom > 0 && c.namesNext(c.wrapFrom) {
			// The marker followed was stale: go back to the entry that
			// overwrote it.
			c.readOff, c.wrapFrom = c.wrapFrom, 0
			continue
		}
		if c.staleAtReadOff() {
			return n
		}
		e, next, st := decodeEntry(c.buf, c.readOff)
		switch st {
		case entryWrap:
			if c.readOff == 0 {
				return n // empty ring: stay put
			}
			c.readOff, c.wrapFrom = 0, c.readOff
			continue
		case entryNone:
			return n
		case entryTorn:
			c.checksums++
			// staleAtReadOff let it through, so its header names the
			// next index. A followed wrap marker is checked on every
			// Poll (above), so no write may be skipped while one is.
			c.torn, c.tornTrailer = c.wrapFrom == 0, next-entryTrailerBytes
			return n
		}
		c.checksums++
		if e.Index != c.nextIndex {
			// Stale bytes from a previous lap (or an overwrite racing the
			// scan): not our entry yet.
			return n
		}
		if e.PrevTerm != c.lastTerm {
			// The entry does not extend the log this consumer built: a
			// write from a deposed leader landed exactly where the next
			// entry was expected. Refuse it; the live leader's repair (a
			// rewind marker plus its own suffix) or its next append
			// overwrites these bytes.
			return n
		}
		entryOff := c.readOff
		c.readOff, c.wrapFrom = next, 0
		c.nextIndex++
		c.lastTerm = e.Term
		n++
		if c.OnReceive != nil {
			c.OnReceive(e)
		}
		if c.OnReceiveAt != nil {
			c.OnReceiveAt(e, entryOff)
		}
		if c.OnApply != nil {
			// Ring bytes at this offset can be overwritten before the
			// commit index covers the entry; queue a private copy.
			if len(e.Data) > 0 {
				e.Data = append([]byte(nil), e.Data...)
			}
			c.pending.Push(e)
		}
		c.advanceCommit(e.CommitIndex)
	}
}

// staleAtReadOff reports whether the bytes at the read offset hold a full
// entry header naming an index other than the next expected one. Once
// the ring has lapped that is the normal state between writes — a
// complete, CRC-valid entry of the previous lap — and Poll would reject
// it on the index after checksumming it; asking the header first skips
// that checksum with the same outcome. Anything else (a wrap marker, a
// header cut short by the end of the ring, the expected index) is left
// to the full decode.
func (c *Consumer) staleAtReadOff() bool {
	hdr := c.buf[c.readOff:]
	return len(hdr) >= entryHeaderBytes &&
		binary.BigEndian.Uint32(hdr[0:4]) != wrapMark &&
		binary.BigEndian.Uint64(hdr[12:20]) != c.nextIndex
}

// namesNext reports whether off holds an entry header naming the next
// expected index. Only Poll's full decode says whether the entry is
// complete.
func (c *Consumer) namesNext(off int) bool {
	hdr := c.buf[off:]
	return len(hdr) >= entryHeaderBytes &&
		binary.BigEndian.Uint32(hdr[0:4]) != wrapMark &&
		binary.BigEndian.Uint32(hdr[0:4]) != rewindMark &&
		binary.BigEndian.Uint64(hdr[12:20]) == c.nextIndex
}

// processRewind validates and acts on the rewind marker at the read
// offset. It returns false when the consumer should park instead: the
// marker is torn (CRC mismatch mid-write) or already acted on — in both
// cases a later write resolves the situation by completing, replacing
// or overwriting the bytes.
func (c *Consumer) processRewind() bool {
	rec := c.buf[c.readOff : c.readOff+rewindMarkBytes]
	if crc32.ChecksumIEEE(rec[:rewindMarkBytes-4]) != binary.BigEndian.Uint32(rec[rewindMarkBytes-4:]) {
		return false
	}
	term := binary.BigEndian.Uint32(rec[20:24])
	seq := binary.BigEndian.Uint32(rec[24:28])
	if term < c.markTerm || (term == c.markTerm && seq <= c.markSeq) {
		return false
	}
	c.markTerm, c.markSeq = term, seq
	target := binary.BigEndian.Uint64(rec[4:12])
	keptTerm := binary.BigEndian.Uint32(rec[12:16])
	off := int(binary.BigEndian.Uint32(rec[16:20]))
	c.pending.Filter(func(e *Entry) bool { return e.Index < target })
	c.seek(off, target, keptTerm)
	if c.OnRewind != nil {
		c.OnRewind(target, keptTerm, off)
	}
	return true
}

// AdvanceCommit raises the commit index (e.g. from a side channel) and
// applies newly covered entries.
func (c *Consumer) AdvanceCommit(idx uint64) { c.advanceCommit(idx) }

func (c *Consumer) advanceCommit(idx uint64) {
	if idx <= c.commit && c.commit != 0 {
		c.drainApplied()
		return
	}
	if idx > c.commit {
		c.commit = idx
	}
	c.drainApplied()
}

func (c *Consumer) drainApplied() {
	for c.pending.Len() > 0 && c.pending.Front().Index <= c.commit {
		e := c.pending.PopFront()
		if c.OnApply != nil {
			c.OnApply(e)
		}
	}
}
