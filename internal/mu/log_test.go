package mu

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"p4ce/internal/otrace"
)

func TestEntryEncodeDecode(t *testing.T) {
	e := &Entry{Term: 3, Index: 42, CommitIndex: 40, Flags: FlagNoop, Data: []byte("payload")}
	buf := EncodeEntry(e)
	if len(buf) != e.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), e.EncodedSize())
	}
	got, next, wrapped, ok := DecodeEntryAt(buf, 0)
	if !ok || wrapped {
		t.Fatalf("decode failed: ok=%v wrapped=%v", ok, wrapped)
	}
	if next != len(buf) {
		t.Fatalf("next = %d, want %d", next, len(buf))
	}
	if got.Term != 3 || got.Index != 42 || got.CommitIndex != 40 || !got.IsNoop() || !bytes.Equal(got.Data, e.Data) {
		t.Fatalf("decoded %+v", got)
	}
}

// TestEncodeEntryIntoWritesEveryByte: EncodeEntryInto over a buffer of
// exactly EncodedSize junk bytes yields what EncodeEntry writes into a
// zeroed one, so appendLocal may take an unzeroed pooled buffer.
func TestEncodeEntryIntoWritesEveryByte(t *testing.T) {
	for _, e := range []*Entry{
		{Term: 3, PrevTerm: 2, Index: 42, CommitIndex: 40, Flags: FlagBatch, Data: []byte("payload")},
		{Term: 1, Index: 1, Flags: FlagNoop},
	} {
		for _, junk := range []byte{0xA5, 0xFF} {
			buf := bytes.Repeat([]byte{junk}, e.EncodedSize())
			EncodeEntryInto(buf, e)
			if want := EncodeEntry(e); !bytes.Equal(buf, want) {
				t.Errorf("entry %d: EncodeEntryInto over 0x%02X junk differs from EncodeEntry", e.Index, junk)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	e := &Entry{Term: 1, Index: 1, Data: []byte("abcdef")}
	buf := EncodeEntry(e)
	for i := 0; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if _, _, _, ok := DecodeEntryAt(mut, 0); ok {
			// Flipping a bit anywhere must invalidate the CRC — except
			// when it turns the length field into the wrap marker, which
			// reports wrapped instead of ok.
			t.Fatalf("corrupted byte %d still decoded", i)
		}
	}
}

func TestDecodeIncompleteEntry(t *testing.T) {
	e := &Entry{Term: 1, Index: 1, Data: make([]byte, 100)}
	buf := EncodeEntry(e)
	ring := make([]byte, 256)
	copy(ring, buf[:len(buf)-10]) // trailer missing
	if _, _, _, ok := DecodeEntryAt(ring, 0); ok {
		t.Fatal("half-written entry decoded")
	}
}

// Property: encode/decode inverse for arbitrary entries.
func TestEntryRoundtripProperty(t *testing.T) {
	f := func(term uint32, index, commit uint64, flags uint8, data []byte) bool {
		e := &Entry{Term: term, Index: index, CommitIndex: commit, Flags: flags, Data: data}
		got, next, wrapped, ok := DecodeEntryAt(EncodeEntry(e), 0)
		if !ok || wrapped || next != e.EncodedSize() {
			return false
		}
		if len(data) == 0 {
			return got.Data == nil && got.Index == index && got.Term == term
		}
		return got.Term == term && got.Index == index &&
			got.CommitIndex == commit && got.Flags == flags && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingPlacementWraps(t *testing.T) {
	r := NewRing(100)
	off, _, _, err := r.Place(40)
	if err != nil || off != 0 {
		t.Fatalf("first placement at %d (%v)", off, err)
	}
	off, _, _, err = r.Place(40)
	if err != nil || off != 40 {
		t.Fatalf("second placement at %d (%v)", off, err)
	}
	// 20 bytes left: a 40-byte entry wraps, leaving a marker at 80.
	off, markOff, mark, err := r.Place(40)
	if err != nil || off != 0 || markOff != 80 || !mark {
		t.Fatalf("wrap placement: off=%d markOff=%d mark=%v err=%v", off, markOff, mark, err)
	}
	if _, _, _, err := r.Place(101); err == nil {
		t.Fatal("oversize entry accepted")
	}
}

// Property: a writer appending entries through the Ring and a Consumer
// scanning the same buffer agree on every entry, across arbitrary entry
// sizes and multiple ring laps.
func TestRingConsumerAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ringSize = 4096
		buf := make([]byte, ringSize)
		ring := NewRing(ringSize)
		var got []Entry
		cons := NewConsumer(buf, 1)
		cons.OnReceive = func(e Entry) {
			// OnReceive entries alias the ring; retaining them across
			// laps requires a copy (the documented contract).
			e.Data = append([]byte(nil), e.Data...)
			got = append(got, e)
		}

		var want []Entry
		commit := uint64(0)
		prevTerm := uint32(0)
		for i := uint64(1); i <= 60; i++ {
			data := make([]byte, rng.Intn(200))
			rng.Read(data)
			e := &Entry{Term: 1, PrevTerm: prevTerm, Index: i, CommitIndex: commit, Data: data}
			prevTerm = e.Term
			off, markOff, mark, err := ring.Place(e.EncodedSize())
			if err != nil {
				return false
			}
			if markOff >= 0 && mark {
				copy(buf[markOff:], WrapMarkBytes())
			}
			copy(buf[off:], EncodeEntry(e))
			want = append(want, *e)
			commit = i
			// Consume incrementally half the time, to exercise partial
			// scans against a moving ring.
			if rng.Intn(2) == 0 {
				cons.Poll()
			}
		}
		cons.Poll()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Index != want[i].Index || !bytes.Equal(got[i].Data, want[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConsumerAppliesOnCommitOnly(t *testing.T) {
	buf := make([]byte, 4096)
	ring := NewRing(len(buf))
	cons := NewConsumer(buf, 1)
	var applied []uint64
	cons.OnApply = func(e Entry) { applied = append(applied, e.Index) }

	append1 := func(idx, commit uint64) {
		prevTerm := uint32(1)
		if idx == 1 {
			prevTerm = 0
		}
		e := &Entry{Term: 1, PrevTerm: prevTerm, Index: idx, CommitIndex: commit, Data: []byte{byte(idx)}}
		off, _, _, _ := ring.Place(e.EncodedSize())
		copy(buf[off:], EncodeEntry(e))
	}
	append1(1, 0)
	append1(2, 0)
	cons.Poll()
	if len(applied) != 0 {
		t.Fatalf("applied %v before commit", applied)
	}
	append1(3, 2) // carries commit=2
	cons.Poll()
	if len(applied) != 2 || applied[0] != 1 || applied[1] != 2 {
		t.Fatalf("applied %v, want [1 2]", applied)
	}
	cons.AdvanceCommit(3)
	if len(applied) != 3 {
		t.Fatalf("applied %v after AdvanceCommit(3)", applied)
	}
}

func TestConsumerIgnoresStaleBytes(t *testing.T) {
	// A ring position holding a stale-but-valid entry from a previous
	// lap (lower index) must not be consumed.
	buf := make([]byte, 4096)
	stale := &Entry{Term: 1, Index: 5, Data: []byte("old")}
	copy(buf, EncodeEntry(stale))
	cons := NewConsumer(buf, 7) // expecting index 7
	if n := cons.Poll(); n != 0 {
		t.Fatalf("consumed %d stale entries", n)
	}
}

// TestConsumerMixedSizesAcrossLaps pins Poll's header-first index check
// to the decode-then-check order it replaced. Mixed-size entries fill a
// small ring for three laps while the consumer polls after every write,
// so between writes its read offset usually holds a complete, CRC-valid
// entry of an earlier lap. Poll must not consume those, and must deliver
// the same (Index, Term, Data) sequence as a reference scan that
// checksums first and looks at the index afterwards.
func TestConsumerMixedSizesAcrossLaps(t *testing.T) {
	const ringSize = 2048
	rng := rand.New(rand.NewSource(15))
	buf := make([]byte, ringSize)
	ring := NewRing(ringSize)
	type rec struct {
		index uint64
		term  uint32
		data  []byte
	}
	var got, want []rec
	cons := NewConsumer(buf, 1)
	cons.OnReceive = func(e Entry) {
		got = append(got, rec{e.Index, e.Term, append([]byte(nil), e.Data...)})
	}
	// The reference: full decode (CRC included) at the read offset, then
	// the index and chain checks.
	refOff, refNext, refTerm := 0, uint64(1), uint32(0)
	refPoll := func() {
		for {
			e, next, wrapped, ok := DecodeEntryAt(buf, refOff)
			if wrapped && refOff != 0 {
				refOff = 0
				continue
			}
			if !ok || e.Index != refNext || e.PrevTerm != refTerm {
				return
			}
			refOff, refNext, refTerm = next, refNext+1, e.Term
			want = append(want, rec{e.Index, e.Term, e.Data})
		}
	}

	laps, staleSeen := 0, 0
	prevTerm := uint32(0)
	for i := uint64(1); laps < 3; i++ {
		data := make([]byte, rng.Intn(120))
		rng.Read(data)
		e := &Entry{Term: 1 + uint32(i/40), PrevTerm: prevTerm, Index: i, CommitIndex: i - 1, Data: data}
		prevTerm = e.Term
		off, markOff, mark, err := ring.Place(e.EncodedSize())
		if err != nil {
			t.Fatal(err)
		}
		if markOff >= 0 {
			laps++
			if mark {
				copy(buf[markOff:], WrapMarkBytes())
			}
		}
		copy(buf[off:], EncodeEntry(e))
		if n := cons.Poll(); n != 1 {
			t.Fatalf("entry %d: Poll consumed %d, want 1", i, n)
		}
		refPoll()
		// What sits at the read offset now is whatever an earlier lap left.
		if old, _, _, ok := DecodeEntryAt(buf, cons.ReadOffset()); ok {
			if old.Index >= cons.NextIndex() {
				t.Fatalf("entry %d: read offset holds index %d from the future", i, old.Index)
			}
			staleSeen++
			if n := cons.Poll(); n != 0 {
				t.Fatalf("entry %d: consumed %d stale-lap entries (index %d, valid CRC)", i, n, old.Index)
			}
		}
	}
	if staleSeen == 0 {
		t.Fatal("no CRC-valid stale entry ever sat at the read offset: the test lost its subject")
	}
	if len(got) != len(want) || cons.ReadOffset() != refOff {
		t.Fatalf("delivered %d entries to offset %d, reference %d to %d", len(got), cons.ReadOffset(), len(want), refOff)
	}
	for i := range want {
		if got[i].index != want[i].index || got[i].term != want[i].term || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("entry %d: got (%d, %d, %d B), want (%d, %d, %d B)", i,
				got[i].index, got[i].term, len(got[i].data), want[i].index, want[i].term, len(want[i].data))
		}
	}
}

// TestConsumerFollowsEntryOverStaleWrapMark covers a wrap marker left
// by an earlier lap. Equal-size entries lay every lap out alike, so the
// consumer that reads a lap's last entry finds the previous lap's
// marker right behind it and follows it to offset 0. If the leader's
// next entry is a no-op small enough to fit in the tail, it lands on
// that marker instead; the consumer must go back for it and then keep
// following the log, not wait at 0 for an index that is never written
// there.
func TestConsumerFollowsEntryOverStaleWrapMark(t *testing.T) {
	buf := make([]byte, 1000)
	ring := NewRing(len(buf))
	cons := NewConsumer(buf, 1)
	var got []uint64
	cons.OnReceive = func(e Entry) { got = append(got, e.Index) }
	prevTerm, index := uint32(0), uint64(0)
	put := func(data []byte) int {
		index++
		e := &Entry{Term: 1, PrevTerm: prevTerm, Index: index, CommitIndex: index - 1, Data: data}
		prevTerm = e.Term
		off, markOff, mark, err := ring.Place(e.EncodedSize())
		if err != nil {
			t.Fatal(err)
		}
		if markOff >= 0 && mark {
			copy(buf[markOff:], WrapMarkBytes())
		}
		copy(buf[off:], EncodeEntry(e))
		cons.Poll()
		return off
	}
	// Two laps of seven 133-byte entries, each lap ending at 931 with a
	// wrap marker there.
	for i := 0; i < 14; i++ {
		put(make([]byte, 100))
	}
	if cons.ReadOffset() != 0 {
		t.Fatalf("read offset %d after the second lap, want 0 (past the old marker)", cons.ReadOffset())
	}
	if off := put(nil); off != 931 {
		t.Fatalf("no-op placed at %d, want 931 (on the old marker)", off)
	}
	put(make([]byte, 100)) // wraps: marker at 964, entry at 0
	for i, idx := range got {
		if idx != uint64(i+1) {
			t.Fatalf("consumed %v, want 1..%d in order", got, index)
		}
	}
	if len(got) != int(index) || cons.ReadOffset() != ring.Offset() {
		t.Fatalf("consumed %d of %d entries, read offset %d, append offset %d", len(got), index, cons.ReadOffset(), ring.Offset())
	}
}

// TestConsumerRejectsBrokenChain covers the log-matching guard: an
// entry whose PrevTerm disagrees with the last consumed term must not
// be consumed, even when it sits exactly where the next entry is
// expected — the scenario of a deposed leader's write racing a new
// leader's.
func TestConsumerRejectsBrokenChain(t *testing.T) {
	buf := make([]byte, 4096)
	ring := NewRing(len(buf))
	cons := NewConsumer(buf, 1)
	put := func(e *Entry) int {
		off, _, _, _ := ring.Place(e.EncodedSize())
		copy(buf[off:], EncodeEntry(e))
		return off
	}
	put(&Entry{Term: 2, PrevTerm: 0, Index: 1, Data: []byte("a")})
	if n := cons.Poll(); n != 1 {
		t.Fatalf("consumed %d, want 1", n)
	}
	// A dead term-1 leader's entry 2 lands at the expected offset but
	// chains off a different entry 1 (term 1, not term 2).
	off := put(&Entry{Term: 1, PrevTerm: 1, Index: 2, Data: []byte("stale")})
	if n := cons.Poll(); n != 0 {
		t.Fatalf("consumed %d stale-chain entries", n)
	}
	// The live leader overwrites it with the real entry 2.
	real := &Entry{Term: 2, PrevTerm: 2, Index: 2, Data: []byte("real")}
	copy(buf[off:], EncodeEntry(real))
	if n := cons.Poll(); n != 1 {
		t.Fatalf("consumed %d, want 1 after overwrite", n)
	}
	if cons.LastTerm() != 2 || cons.NextIndex() != 3 {
		t.Fatalf("lastTerm=%d nextIndex=%d", cons.LastTerm(), cons.NextIndex())
	}
}

// TestConsumerRewindMarker covers the divergence-repair protocol from
// the replica's side: a rewind marker moves the consumer back to the
// committed prefix, drops the discarded suffix from the apply queue,
// and the leader's replacement entries then consume and apply. Leftover
// (already-processed) markers must park the consumer, not loop it.
func TestConsumerRewindMarker(t *testing.T) {
	buf := make([]byte, 4096)
	ring := NewRing(len(buf))
	cons := NewConsumer(buf, 1)
	cons.allowRewind = true
	var applied []string
	cons.OnApply = func(e Entry) { applied = append(applied, string(e.Data)) }
	var rewinds int
	cons.OnRewind = func(target uint64, keptTerm uint32, off int) {
		if target != 2 || keptTerm != 1 {
			t.Fatalf("OnRewind(target=%d keptTerm=%d)", target, keptTerm)
		}
		rewinds++
	}
	put := func(e *Entry) int {
		off, _, _, _ := ring.Place(e.EncodedSize())
		copy(buf[off:], EncodeEntry(e))
		return off
	}
	put(&Entry{Term: 1, PrevTerm: 0, Index: 1, CommitIndex: 0, Data: []byte("committed")})
	tOff := put(&Entry{Term: 1, PrevTerm: 1, Index: 2, CommitIndex: 1, Data: []byte("stale-2")})
	put(&Entry{Term: 1, PrevTerm: 1, Index: 3, CommitIndex: 1, Data: []byte("stale-3")})
	if n := cons.Poll(); n != 3 {
		t.Fatalf("consumed %d, want 3", n)
	}
	markOff := ring.Offset()
	if got := len(applied); got != 1 || applied[0] != "committed" {
		t.Fatalf("applied %v before repair", applied)
	}
	// The new leader (term 2) zeroes the stale suffix, writes the rewind
	// marker at the consume position, and rewrites its own suffix at the
	// same offsets.
	for i := tOff; i < markOff; i++ {
		buf[i] = 0
	}
	copy(buf[markOff:], EncodeRewindMark(2, 1, tOff, 2, 1))
	if n := cons.Poll(); n != 0 {
		t.Fatalf("consumed %d entries processing the marker", n)
	}
	if rewinds != 1 || cons.NextIndex() != 2 || cons.ReadOffset() != tOff || cons.LastTerm() != 1 {
		t.Fatalf("after marker: rewinds=%d nextIndex=%d readOff=%d lastTerm=%d",
			rewinds, cons.NextIndex(), cons.ReadOffset(), cons.LastTerm())
	}
	ring.SetOffset(tOff)
	repl2 := put(&Entry{Term: 2, PrevTerm: 1, Index: 2, CommitIndex: 1, Data: []byte("repl-2")})
	if repl2 != tOff {
		t.Fatalf("replacement landed at %d, want %d", repl2, tOff)
	}
	put(&Entry{Term: 2, PrevTerm: 2, Index: 3, CommitIndex: 1, Data: []byte("repl-3")})
	put(&Entry{Term: 2, PrevTerm: 2, Index: 4, CommitIndex: 3, Data: []byte("repl-4")})
	if n := cons.Poll(); n != 3 {
		t.Fatalf("consumed %d replacements, want 3", n)
	}
	cons.AdvanceCommit(4)
	want := []string{"committed", "repl-2", "repl-3", "repl-4"}
	if len(applied) != len(want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied %v, want %v", applied, want)
		}
	}
	// A consumer that runs onto a leftover marker with an already-seen
	// identity must park on it (awaiting overwrite), never re-process.
	leftOff := ring.Offset()
	copy(buf[leftOff:], EncodeRewindMark(2, 1, tOff, 2, 1))
	cons.readOff = leftOff
	if n := cons.Poll(); n != 0 {
		t.Fatalf("consumed %d on leftover marker", n)
	}
	if rewinds != 1 || cons.NextIndex() != 5 {
		t.Fatalf("leftover marker re-processed (rewinds=%d nextIndex=%d)", rewinds, cons.NextIndex())
	}
}

func TestDirectTransportQuorum(t *testing.T) {
	tr := NewDirectTransport(5) // f = 2
	if tr.AcksNeeded() != 2 {
		t.Fatalf("AcksNeeded = %d, want 2", tr.AcksNeeded())
	}
	calls := 0
	write := func(data []byte, off int, trace otrace.ID, done func(error)) error {
		calls++
		done(nil)
		return nil
	}
	for id := 1; id <= 4; id++ {
		tr.AddPath(id, write)
	}
	if !tr.Ready() || tr.Requests() != 4 {
		t.Fatalf("Ready=%v Requests=%d", tr.Ready(), tr.Requests())
	}
	acks := 0
	if err := tr.Replicate([]byte("x"), 0, 0, func(err error) {
		if err == nil {
			acks++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 4 || acks != 4 {
		t.Fatalf("calls=%d acks=%d", calls, acks)
	}
	tr.RemovePath(1)
	tr.RemovePath(2)
	if !tr.Ready() {
		t.Fatal("transport not ready with exactly f paths")
	}
	tr.RemovePath(3)
	if tr.Ready() {
		t.Fatal("transport ready below quorum")
	}
	if err := tr.Replicate(nil, 0, 0, nil); err != ErrNotReady {
		t.Fatalf("Replicate below quorum = %v", err)
	}
}
