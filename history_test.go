package p4ce

// End-to-end history check for the examples/kvstore shape of usage: a
// session client writes through the replicated KV while the
// replica-flap chaos scenario crashes and recovers replicas under it.
// The committed history must read like a single sequential execution:
//
//   - prefix consistency — every node applies a gapless index prefix,
//     and any index applied on two nodes carries the same command;
//   - exactly-once — client retries never double-apply a write;
//   - read-your-writes — after the horizon, every acknowledged write is
//     readable on every surviving node whose applied prefix covers it,
//     with exactly the acknowledged value.

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// kvApplyRecord is one post-dedup application of a KV write.
type kvApplyRecord struct {
	index      uint64
	key, value string
}

// recordingKV wraps the example KV store and keeps the exactly-once
// application history the invariants are checked against. It sits
// inside NewDedup, so duplicates suppressed by the session layer never
// reach it.
type recordingKV struct {
	kv      *KV
	history []kvApplyRecord
}

func (r *recordingKV) Apply(index uint64, cmd []byte) {
	r.kv.Apply(index, cmd)
	op, key, value, err := DecodeKVCommand(cmd)
	if err != nil || op != kvOpSet {
		return
	}
	r.history = append(r.history, kvApplyRecord{index: index, key: key, value: value})
}

func TestKVHistoryLinearizableUnderReplicaFlap(t *testing.T) {
	const nodes = 5
	cl := NewCluster(Options{Nodes: nodes, Mode: ModeP4CE, Seed: 77, AsyncReconfig: true})
	recs := make([]*recordingKV, nodes)
	for i, n := range cl.Nodes() {
		recs[i] = &recordingKV{kv: NewKV()}
		n.Bind(NewDedup(recs[i]))
	}
	if _, err := cl.RunUntilLeader(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// One unique key per write, so "the acknowledged value" is
	// unambiguous and a duplicate application is directly visible.
	const writes = 200
	client := cl.NewClient()
	client.RetryDelay = 500 * time.Microsecond
	acked := make(map[string]string) // key -> value the client was acked for
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("acct:%04d", i)
		value := fmt.Sprintf("balance=%d", i*100)
		cl.Shard(0).After(time.Duration(i)*150*time.Microsecond, func() {
			client.SubmitKV(key, value, func(err error) {
				if err == nil {
					acked[key] = value
				}
			})
		})
	}

	if _, horizon, err := cl.ApplyChaosScenario("replica-flap", 7, nil); err != nil {
		t.Fatal(err)
	} else {
		cl.Run(horizon)
	}
	cl.Run(60 * time.Millisecond) // drain the retry tail after the faults

	if len(acked) == 0 {
		t.Fatal("no write was ever acknowledged")
	}
	if len(acked) < writes*4/5 {
		t.Fatalf("only %d/%d writes acknowledged: cluster never recovered", len(acked), writes)
	}

	// Prefix consistency: applications land in strictly increasing index
	// order with no gaps a later entry jumps over, and any index applied
	// by two nodes carries the same write.
	committedAt := make(map[uint64]kvApplyRecord) // union across nodes
	keyIndex := make(map[string]uint64)
	for i, r := range recs {
		sorted := sort.SliceIsSorted(r.history, func(a, b int) bool {
			return r.history[a].index < r.history[b].index
		})
		if !sorted {
			t.Fatalf("node %d applied out of index order", i)
		}
		seenKeys := make(map[string]bool)
		for _, rec := range r.history {
			if seenKeys[rec.key] {
				t.Fatalf("node %d applied key %q twice: a client retry double-committed", i, rec.key)
			}
			seenKeys[rec.key] = true
			if prev, ok := committedAt[rec.index]; ok && prev != rec {
				t.Fatalf("divergence at index %d: %+v vs %+v", rec.index, prev, rec)
			}
			committedAt[rec.index] = rec
			keyIndex[rec.key] = rec.index
		}
	}

	// Read-your-writes on a consistent prefix: a surviving node whose
	// applied history reaches past a committed acked write must serve
	// exactly the acknowledged value for it.
	for i, n := range cl.Nodes() {
		if n.Crashed() {
			continue
		}
		var maxIdx uint64
		for _, rec := range recs[i].history {
			if rec.index > maxIdx {
				maxIdx = rec.index
			}
		}
		for key, want := range acked {
			idx, committed := keyIndex[key]
			if !committed {
				t.Fatalf("acked write %q absent from every node's committed history", key)
			}
			if idx > maxIdx {
				continue // behind this node's prefix: nothing to read yet
			}
			got, ok := recs[i].kv.Get(key)
			if !ok {
				t.Fatalf("node %d: acked write %q (index %d ≤ prefix %d) not readable", i, key, idx, maxIdx)
			}
			if got != want {
				t.Fatalf("node %d: read %q = %q, acked value was %q", i, key, got, want)
			}
		}
	}

	// At least the current leader must have every acked write readable.
	leader := cl.Leader()
	if leader == nil {
		t.Fatal("no leader after the horizon")
	}
	for key, want := range acked {
		if got, ok := recs[leader.ID()].kv.Get(key); !ok || got != want {
			t.Fatalf("leader node %d: acked %q=%q, read (%q, %v)", leader.ID(), key, want, got, ok)
		}
	}
}
