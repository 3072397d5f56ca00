package mu

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// pollPair feeds the same writes to two replicas of one log: fast
// consumes with PollWrite, ref with a full Poll after every write. Both
// record what they deliver, and write fails the test at the first step
// where the two differ in entries, order or return value.
type pollPair struct {
	t                *testing.T
	fastBuf, refBuf  []byte
	fast, ref        *Consumer
	fastLog, refLog  []string
	checked          int // deliveries already compared
	writes, consumed int
}

func newPollPair(t *testing.T, size int) *pollPair {
	pp := &pollPair{t: t, fastBuf: make([]byte, size), refBuf: make([]byte, size)}
	pp.fast = pp.consumer(pp.fastBuf, &pp.fastLog)
	pp.ref = pp.consumer(pp.refBuf, &pp.refLog)
	return pp
}

func (pp *pollPair) consumer(buf []byte, log *[]string) *Consumer {
	c := NewConsumer(buf, 1)
	c.allowRewind = true
	c.OnReceiveAt = func(e Entry, off int) {
		*log = append(*log, fmt.Sprintf("entry %d term %d prev %d at %d: %d B crc %08x",
			e.Index, e.Term, e.PrevTerm, off, len(e.Data), crc32.ChecksumIEEE(e.Data)))
	}
	c.OnRewind = func(target uint64, keptTerm uint32, off int) {
		*log = append(*log, fmt.Sprintf("rewind to %d (kept term %d) at %d", target, keptTerm, off))
	}
	return c
}

// write lands data at off in both logs and polls both consumers.
func (pp *pollPair) write(off int, data []byte) {
	pp.t.Helper()
	copy(pp.fastBuf[off:], data)
	copy(pp.refBuf[off:], data)
	pp.writes++
	nf, nr := pp.fast.PollWrite(off, len(data)), pp.ref.Poll()
	pp.consumed += nr
	if nf != nr || len(pp.fastLog) != len(pp.refLog) {
		pp.t.Fatalf("write %d (%d B at %d): PollWrite consumed %d, Poll %d\nPollWrite: %q\nPoll: %q",
			pp.writes, len(data), off, nf, nr, pp.fastLog, pp.refLog)
	}
	for i := pp.checked; i < len(pp.refLog); i++ {
		if pp.fastLog[i] != pp.refLog[i] {
			pp.t.Fatalf("write %d: delivery %d differs:\nPollWrite: %s\nPoll: %s", pp.writes, i, pp.fastLog[i], pp.refLog[i])
		}
	}
	pp.checked = len(pp.refLog)
}

// send lays one message down as an RDMA write does: MTU segments in
// order, with duplicate deliveries of segments already landed and
// go-back-N retransmissions from an earlier segment mixed in.
func (pp *pollPair) send(rng *rand.Rand, off int, msg []byte) {
	mtu := 8 + rng.Intn(300)
	if rng.Intn(3) == 0 {
		mtu = len(msg) + 1 // one segment
	}
	seg := func(i int) (int, []byte) {
		lo, hi := i*mtu, (i+1)*mtu
		if hi > len(msg) {
			hi = len(msg)
		}
		return off + lo, msg[lo:hi]
	}
	n := (len(msg) + mtu - 1) / mtu
	for i := 0; i < n; {
		pp.write(seg(i))
		switch r := rng.Intn(10); {
		case r == 0 && i > 0:
			pp.write(seg(rng.Intn(i))) // a duplicate of a landed segment
			i++
		case r == 1:
			i = max(0, i-rng.Intn(4)) // go back N: resend from an earlier segment
		default:
			i++
		}
	}
}

// logWriter is the leader side: it places entries with a Ring and
// remembers where each index of its current log lies.
type logWriter struct {
	pp       *pollPair
	rng      *rand.Rand
	ring     *Ring
	term     uint32
	lastTerm uint32
	index    uint64
	offs     map[uint64]int
	terms    map[uint64]uint32
	markSeq  uint32
}

func newLogWriter(pp *pollPair, rng *rand.Rand) *logWriter {
	return &logWriter{pp: pp, rng: rng, ring: NewRing(len(pp.refBuf)), term: 1,
		offs: make(map[uint64]int), terms: make(map[uint64]uint32)}
}

// place assigns the next entry its ring offset, sending the wrap marker
// a wrap calls for.
func (w *logWriter) place(e *Entry) int {
	off, markOff, mark, err := w.ring.Place(e.EncodedSize())
	if err != nil {
		w.pp.t.Fatal(err)
	}
	if markOff >= 0 && mark {
		w.pp.send(w.rng, markOff, WrapMarkBytes())
	}
	return off
}

func (w *logWriter) next(size int) *Entry {
	data := make([]byte, size)
	w.rng.Read(data)
	return &Entry{Term: w.term, PrevTerm: w.lastTerm, Index: w.index + 1, CommitIndex: w.index, Data: data}
}

func (w *logWriter) commit(e *Entry, off int) {
	w.index, w.lastTerm = e.Index, e.Term
	w.offs[e.Index], w.terms[e.Index] = off, e.Term
}

// appendEntry writes the next entry in full.
func (w *logWriter) appendEntry(size int) {
	e := w.next(size)
	off := w.place(e)
	w.pp.send(w.rng, off, EncodeEntry(e))
	w.commit(e, off)
}

// tornPrefix lands only a prefix of the next entry — at least its
// header — as a leader deposed mid-write does. The entry stays out of
// the log: the next leader places its own entry for that index at the
// same offset, over the torn one.
func (w *logWriter) tornPrefix(size int) {
	e := w.next(size)
	off := w.place(e)
	enc := EncodeEntry(e)
	cut := entryHeaderBytes + w.rng.Intn(len(enc)-entryHeaderBytes)
	w.pp.send(w.rng, off, enc[:cut])
	w.ring.SetOffset(off)
	w.term++
}

// rewind repairs the replica the way Node.repairReplica does: zero the
// region from the rewind point to the replica's read offset, park a
// rewind marker there, and have a new term's entries follow from the
// rewind point.
func (w *logWriter) rewind() {
	ref := w.pp.ref
	if ref.NextIndex() <= 1 {
		return
	}
	target := ref.NextIndex() - uint64(w.rng.Intn(3))
	if target < 1 {
		target = 1
	}
	tOff, ok := w.offs[target]
	if target > w.index {
		tOff, ok = w.ring.Offset(), true
	}
	staleEnd, size := ref.ReadOffset(), len(w.pp.refBuf)
	if !ok || tOff == staleEnd {
		return
	}
	keptTerm := w.terms[target-1]
	if staleEnd > tOff {
		w.pp.send(w.rng, tOff, make([]byte, staleEnd-tOff))
	} else {
		w.pp.send(w.rng, tOff, make([]byte, size-tOff))
		if staleEnd > 0 {
			w.pp.send(w.rng, 0, make([]byte, staleEnd))
		}
	}
	w.term++
	w.markSeq++
	markOff := staleEnd
	if markOff+rewindMarkBytes > size {
		if size-markOff >= 4 {
			w.pp.send(w.rng, markOff, WrapMarkBytes())
		}
		markOff = 0
	}
	w.pp.send(w.rng, markOff, EncodeRewindMark(target, keptTerm, tOff, w.term, w.markSeq))
	for idx := target; idx <= w.index; idx++ {
		delete(w.offs, idx)
		delete(w.terms, idx)
	}
	w.index, w.lastTerm = target-1, keptTerm
	w.ring.SetOffset(tOff)
}

// TestPollWriteMatchesPoll is the model test of PollWrite: over random
// segmentations, duplicate and go-back-N segments, torn entries that a
// new leader's entry overwrites, wrap markers and rewind markers, a
// consumer polled with PollWrite delivers the same entries, in the same
// order, with the same return value at every write, as one running a
// full Poll after every write — while computing fewer checksums.
func TestPollWriteMatchesPoll(t *testing.T) {
	var fastSums, refSums uint64
	rewinds := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pp := newPollPair(t, 2048+rng.Intn(4096))
		w := newLogWriter(pp, rng)
		for step := 0; step < 120; step++ {
			size := rng.Intn(700)
			if rng.Intn(4) == 0 {
				size = 0 // a commit-bump no-op
			}
			switch r := rng.Intn(20); {
			case r == 0:
				w.tornPrefix(size)
				if rng.Intn(2) == 0 {
					w.rewind()
				}
			case r == 1:
				w.rewind()
			default:
				w.appendEntry(size)
			}
		}
		if pp.consumed == 0 {
			t.Fatalf("seed %d consumed nothing", seed)
		}
		fastSums += pp.fast.checksums
		refSums += pp.ref.checksums
		for _, d := range pp.refLog {
			if strings.HasPrefix(d, "rewind") {
				rewinds++
			}
		}
	}
	if rewinds == 0 {
		t.Fatal("no rewind marker was acted on")
	}
	if fastSums >= refSums {
		t.Fatalf("PollWrite computed %d entry checksums, Poll %d: nothing skipped", fastSums, refSums)
	}
	t.Logf("entry checksums: PollWrite %d, Poll after every write %d; %d rewinds", fastSums, refSums, rewinds)
}

// TestPollWriteFollowsEntryOverStaleWrapMark replays the layout of
// TestConsumerFollowsEntryOverStaleWrapMark through segmented writes:
// equal-size laps leave a stale wrap marker exactly where the next lap
// ends, and a no-op lands on it.
func TestPollWriteFollowsEntryOverStaleWrapMark(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pp := newPollPair(t, 1000)
		w := newLogWriter(pp, rng)
		for i := 0; i < 14; i++ {
			w.appendEntry(100)
		}
		if off := w.ring.Offset(); off != 931 {
			t.Fatalf("second lap ends at %d, want 931 (on the old marker)", off)
		}
		w.appendEntry(0)
		for i := 0; i < 10; i++ {
			w.appendEntry(100)
		}
		if pp.consumed != int(w.index) {
			t.Fatalf("seed %d: consumed %d of %d entries", seed, pp.consumed, w.index)
		}
	}
}

// TestPollWriteDoesNotSkipPastFollowedWrapMark: a consumer that followed
// a wrap marker to offset 0 and finds a torn entry naming the next
// index there must still see the write that lands that index over the
// marker it followed, although the write touches neither the torn
// entry's header nor its trailer.
func TestPollWriteDoesNotSkipPastFollowedWrapMark(t *testing.T) {
	pp := newPollPair(t, 1000)
	for _, c := range []*Consumer{pp.fast, pp.ref} {
		c.seek(931, 15, 1)
	}
	pp.write(931, WrapMarkBytes()) // the marker: both follow it to 0
	torn := EncodeEntry(&Entry{Term: 1, PrevTerm: 1, Index: 15, CommitIndex: 14, Data: make([]byte, 100)})
	pp.write(0, torn[:entryHeaderBytes+10]) // a header naming 15, no trailer yet
	pp.write(931, EncodeEntry(&Entry{Term: 1, PrevTerm: 1, Index: 15, CommitIndex: 14}))
	if pp.consumed != 1 {
		t.Fatalf("consumed %d entries, want the no-op over the marker", pp.consumed)
	}
}
