package p4ce

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestSessionEnvelopeRoundtrip(t *testing.T) {
	f := func(session uint32, seq uint64, payload []byte) bool {
		s, q, p, err := UnwrapSession(WrapSession(session, seq, payload))
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return s == session && q == seq && len(p) == 0
		}
		return s == session && q == seq && reflect.DeepEqual(p, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := UnwrapSession([]byte("short")); err == nil {
		t.Fatal("short command accepted as sessioned")
	}
}

func TestDedupSuppressesReplays(t *testing.T) {
	kv := NewKV()
	d := NewDedup(kv)
	cmd := WrapSession(7, 1, SetCommand("a", "1"))
	d.Apply(1, cmd)
	d.Apply(2, cmd)                                            // exact replay
	d.Apply(3, WrapSession(7, 1, SetCommand("a", "override"))) // same seq, different body
	if v, _ := kv.Get("a"); v != "1" {
		t.Fatalf("a = %q, want first write to win", v)
	}
	if d.Skipped != 2 {
		t.Fatalf("Skipped = %d, want 2", d.Skipped)
	}
	// New sequence applies; other sessions are independent.
	d.Apply(4, WrapSession(7, 2, SetCommand("a", "2")))
	d.Apply(5, WrapSession(9, 1, SetCommand("b", "x")))
	if v, _ := kv.Get("a"); v != "2" {
		t.Fatalf("a = %q after seq 2", v)
	}
	if v, _ := kv.Get("b"); v != "x" {
		t.Fatalf("b = %q from second session", v)
	}
	// Un-sessioned commands pass through.
	d.Apply(6, SetCommand("raw", "ok"))
	if v, _ := kv.Get("raw"); v != "ok" {
		t.Fatal("raw command did not pass through")
	}
}

func TestClientSubmitsThroughLeaderChanges(t *testing.T) {
	cl := NewCluster(Options{Nodes: 5, Mode: ModeP4CE, Seed: 31, AsyncReconfig: true})
	kvs := make([]*KV, 5)
	for i, n := range cl.Nodes() {
		kvs[i] = NewKV()
		n.Bind(NewDedup(kvs[i]))
	}
	if _, err := cl.RunUntilLeader(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	client := cl.NewClient()
	client.RetryDelay = 200 * time.Microsecond

	const writes = 100
	acked := 0
	for i := 0; i < writes; i++ {
		i := i
		cl.Shard(0).After(time.Duration(i)*50*time.Microsecond, func() {
			client.SubmitKV(fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i), func(err error) {
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				acked++
			})
		})
	}
	// Crash the leader in the middle of the stream.
	cl.Shard(0).After(2*time.Millisecond, func() {
		if l := cl.Leader(); l != nil {
			l.Crash()
		}
	})
	cl.Run(120 * time.Millisecond)
	if acked != writes {
		t.Fatalf("acked %d of %d", acked, writes)
	}
	// Every surviving replica has all keys exactly once, identical state.
	var reference map[string]string
	for i, n := range cl.Nodes() {
		if n.Crashed() {
			continue
		}
		snap := kvs[i].Snapshot()
		if len(snap) != writes {
			t.Fatalf("node %d holds %d keys, want %d", i, len(snap), writes)
		}
		if reference == nil {
			reference = snap
		} else if !reflect.DeepEqual(snap, reference) {
			t.Fatalf("node %d diverged", i)
		}
	}
	if client.Retries == 0 {
		t.Log("note: crash fell between submissions; no retries exercised")
	}
}

func TestClientExactlyOnceUnderForcedDuplicates(t *testing.T) {
	// Force the duplicate hazard deterministically: submit, let it
	// commit, then re-propose the identical sessioned command directly
	// (as a retrying client would after losing the ack). The KV applies
	// it once; the raw duplicate is visible in Dedup.Skipped.
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 32})
	kv := NewKV()
	dedup := NewDedup(kv)
	cl.Node(1).Bind(dedup)
	leader, err := cl.RunUntilLeader(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	client := cl.NewClient()
	counterCmd := WrapSession(client.Session(), 1, SetCommand("x", "once"))
	if err := leader.Propose(counterCmd, nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(5 * time.Millisecond)
	if err := leader.Propose(counterCmd, nil); err != nil { // the "retry"
		t.Fatal(err)
	}
	cl.Run(5 * time.Millisecond)
	if dedup.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1 (the duplicate)", dedup.Skipped)
	}
	if kv.AppliedCount != 1 {
		t.Fatalf("AppliedCount = %d, want 1", kv.AppliedCount)
	}
}

func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 33})
	if _, err := cl.RunUntilLeader(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Kill everything: no leader will ever answer.
	for _, n := range cl.Nodes() {
		n.Crash()
	}
	client := cl.NewClient()
	client.MaxRetries = 3
	client.RetryDelay = 100 * time.Microsecond
	var gotErr error
	client.Submit([]byte("doomed"), func(err error) { gotErr = err })
	cl.Run(10 * time.Millisecond)
	if gotErr == nil {
		t.Fatal("submit against a dead cluster succeeded?")
	}
}

// Property: sessionState recognizes exactly the marked sequence numbers,
// under arbitrary arrival orders.
func TestSessionStateProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var st sessionState
		marked := make(map[uint64]bool)
		for _, r := range raw {
			seq := uint64(r%512) + 1
			if st.seen(seq) != marked[seq] {
				return false
			}
			if !marked[seq] {
				st.mark(seq)
				marked[seq] = true
			}
		}
		for seq := uint64(1); seq <= 512; seq++ {
			if st.seen(seq) != marked[seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSessionStateCompaction(t *testing.T) {
	var st sessionState
	// Mark out of order: 3,1,2 → contiguous must reach 3 with no sparse
	// residue.
	st.mark(3)
	st.mark(1)
	st.mark(2)
	if st.contiguous != 3 || len(st.sparse) != 0 {
		t.Fatalf("contiguous=%d sparse=%v", st.contiguous, st.sparse)
	}
}
