package p4ce

// Sharded-mode integration tests: key-hash routing, fault isolation
// between consensus groups, per-shard linearizability under chaos, the
// sharded determinism fingerprint, and the facade-level behavior of the
// leader's adaptive batcher.

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// shardedReady drives the cluster until every shard has an accelerated
// leader with full membership.
func shardedReady(t *testing.T, cl *Cluster) []*Node {
	t.Helper()
	leaders, err := cl.RunUntilAllLeaders(500 * time.Millisecond)
	if err != nil {
		t.Fatalf("sharded cluster never reached steady state: %v", err)
	}
	return leaders
}

func TestShardForKeyStableAndBalanced(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Shards: 4, Mode: ModeP4CE, Seed: 5})
	counts := make([]int, cl.ShardCount())
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("acct:%05d", i)
		s := cl.ShardForKey(key)
		if s < 0 || s >= cl.ShardCount() {
			t.Fatalf("ShardForKey(%q) = %d, out of range", key, s)
		}
		if again := cl.ShardForKey(key); again != s {
			t.Fatalf("ShardForKey(%q) unstable: %d then %d", key, s, again)
		}
		counts[s]++
	}
	for s, n := range counts {
		// FNV-1a over distinct keys should land within a loose band of
		// the uniform share (1000 per shard here).
		if n < 700 || n > 1300 {
			t.Fatalf("shard %d owns %d/4000 keys: routing is badly skewed (%v)", s, n, counts)
		}
	}

	single := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 5})
	if s := single.ShardForKey("anything"); s != 0 {
		t.Fatalf("single-group ShardForKey = %d, want 0", s)
	}
}

func TestShardedDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		cl := NewCluster(Options{Nodes: 3, Shards: 3, Mode: ModeP4CE, Seed: 99})
		shardedReady(t, cl)
		router := cl.NewRouter()
		var acked uint64
		for i := 0; i < 120; i++ {
			key := fmt.Sprintf("k%03d", i)
			cl.Shard(cl.ShardForKey(key)).After(time.Duration(i)*40*time.Microsecond, func() {
				router.SubmitKV(key, "v", func(err error) {
					if err == nil {
						acked++
					}
				})
			})
		}
		cl.Run(30 * time.Millisecond)
		return cl.EventsProcessed(), acked
	}
	ev1, acked1 := run()
	ev2, acked2 := run()
	if ev1 != ev2 || acked1 != acked2 {
		t.Fatalf("same seed diverged: events %d vs %d, acked %d vs %d", ev1, ev2, acked1, acked2)
	}
	if acked1 == 0 {
		t.Fatal("no write was ever acknowledged")
	}
}

func TestShardIndependenceUnderLeaderOutage(t *testing.T) {
	const shards = 3
	cl := NewCluster(Options{Nodes: 3, Shards: shards, Mode: ModeP4CE, Seed: 31, AsyncReconfig: true})
	shardedReady(t, cl)

	clients := make([]*Client, shards)
	for s := range clients {
		clients[s] = cl.NewClientForShard(s)
		clients[s].RetryDelay = 500 * time.Microsecond
	}

	// shard-leader-outage takes shard 0's machine 0 — its initial
	// leader — dark from +5 ms to +45 ms.
	if _, _, err := cl.ApplyChaosScenario("shard-leader-outage", 7, nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(10 * time.Millisecond) // now inside the outage window
	// The outage is a dark port + NIC reset, not a crash: the isolated
	// machine still claims leadership but cannot commit, and the
	// survivors' detector must have promoted the next machine by now.
	if l := cl.ShardLeader(0); l == cl.Shard(0).Node(0) {
		t.Fatal("shard 0 leadership never moved off the darkened machine")
	}

	// The other shards must commit while shard 0's leader is dark, on
	// a bounded budget that an outage-induced stall would blow.
	acked := make([]int, shards)
	for s := 1; s < shards; s++ {
		for i := 0; i < 20; i++ {
			s := s
			clients[s].SubmitKV(fmt.Sprintf("s%d:k%d", s, i), "v", func(err error) {
				if err == nil {
					acked[s]++
				}
			})
		}
	}
	cl.Run(5 * time.Millisecond)
	for s := 1; s < shards; s++ {
		if acked[s] != 20 {
			t.Fatalf("shard %d committed %d/20 writes during shard 0's leader outage", s, acked[s])
		}
	}

	// After the horizon shard 0 must have recovered: a new (or the
	// healed) leader commits again.
	cl.Run(250 * time.Millisecond)
	done := false
	clients[0].SubmitKV("s0:recovered", "v", func(err error) { done = err == nil })
	cl.Run(20 * time.Millisecond)
	if !done {
		t.Fatal("shard 0 never recovered from its leader outage")
	}
}

func TestShardIsolationUnderGroupLoss(t *testing.T) {
	const shards = 3
	cl := NewCluster(Options{Nodes: 3, Shards: shards, Mode: ModeP4CE, Seed: 13})
	leaders := shardedReady(t, cl)

	// Tear shard 1's multicast/gather group out of the switch. The
	// other shards' groups — and their registers — must be untouched.
	cl.DestroySwitchGroup(leaders[1])
	cl.Run(60 * time.Millisecond) // 40 ms reconfig delay + margin
	for s := 0; s < shards; s++ {
		l := cl.ShardLeader(s)
		if l == nil {
			t.Fatalf("shard %d lost its leader to another shard's group teardown", s)
		}
		if s != 1 && !l.Accelerated() {
			t.Fatalf("shard %d fell off the switch path when shard 1's group was destroyed", s)
		}
	}

	// Every shard still commits: the untouched ones through the switch,
	// shard 1 over whatever path its leader now has.
	acked := make([]int, shards)
	for s := 0; s < shards; s++ {
		c := cl.NewClientForShard(s)
		c.RetryDelay = 500 * time.Microsecond
		for i := 0; i < 10; i++ {
			s := s
			c.SubmitKV(fmt.Sprintf("s%d:k%d", s, i), "v", func(err error) {
				if err == nil {
					acked[s]++
				}
			})
		}
	}
	cl.Run(150 * time.Millisecond) // covers fallback + 100 ms re-probe
	for s := 0; s < shards; s++ {
		if acked[s] != 10 {
			t.Fatalf("shard %d committed %d/10 writes after shard 1's group loss", s, acked[s])
		}
	}

	// The deposed shard must re-accelerate: its leader re-requests a
	// group and the control plane reinstalls it (register isolation —
	// the freed register names are available again).
	if l := cl.ShardLeader(1); l == nil || !l.Accelerated() {
		t.Fatal("shard 1 never re-accelerated after its switch group was destroyed")
	}
}

func TestShardedKVHistoryLinearizable(t *testing.T) {
	const (
		shards = 3
		nodes  = 3
		writes = 150
	)
	cl := NewCluster(Options{Nodes: nodes, Shards: shards, Mode: ModeP4CE, Seed: 177, AsyncReconfig: true})
	// One recorder per machine; histories are checked shard by shard
	// because log indexes are per-group.
	recs := make([][]*recordingKV, shards)
	for s := 0; s < shards; s++ {
		recs[s] = make([]*recordingKV, nodes)
		for i, n := range cl.Shard(s).Nodes() {
			recs[s][i] = &recordingKV{kv: NewKV()}
			n.Bind(NewDedup(recs[s][i]))
		}
	}
	shardedReady(t, cl)

	router := cl.NewRouter()
	for s := 0; s < cl.ShardCount(); s++ {
		router.Client(s).RetryDelay = 500 * time.Microsecond
	}
	acked := make(map[string]string)
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("acct:%04d", i)
		value := fmt.Sprintf("balance=%d", i*100)
		cl.Shard(cl.ShardForKey(key)).After(time.Duration(i)*100*time.Microsecond, func() {
			router.SubmitKV(key, value, func(err error) {
				if err == nil {
					acked[key] = value
				}
			})
		})
	}

	if _, horizon, err := cl.ApplyChaosScenario("shard-leader-outage", 7, nil); err != nil {
		t.Fatal(err)
	} else {
		cl.Run(horizon)
	}
	cl.Run(60 * time.Millisecond) // drain the retry tail

	if len(acked) < writes*4/5 {
		t.Fatalf("only %d/%d writes acknowledged: cluster never recovered", len(acked), writes)
	}

	// Per-shard prefix consistency and exactly-once, as in the
	// single-group history test, plus placement: a key must only ever
	// apply on the shard that owns it.
	keyIndex := make(map[string]uint64)
	keyShard := make(map[string]int)
	for s := 0; s < shards; s++ {
		committedAt := make(map[uint64]kvApplyRecord)
		for i, r := range recs[s] {
			if !sort.SliceIsSorted(r.history, func(a, b int) bool {
				return r.history[a].index < r.history[b].index
			}) {
				t.Fatalf("shard %d node %d applied out of index order", s, i)
			}
			seenKeys := make(map[string]bool)
			for _, rec := range r.history {
				if own := cl.ShardForKey(rec.key); own != s {
					t.Fatalf("key %q applied on shard %d but hashes to shard %d", rec.key, s, own)
				}
				if seenKeys[rec.key] {
					t.Fatalf("shard %d node %d applied key %q twice", s, i, rec.key)
				}
				seenKeys[rec.key] = true
				if prev, ok := committedAt[rec.index]; ok && prev != rec {
					t.Fatalf("shard %d divergence at index %d: %+v vs %+v", s, rec.index, prev, rec)
				}
				committedAt[rec.index] = rec
				keyIndex[rec.key] = rec.index
				keyShard[rec.key] = s
			}
		}
	}

	// Read-your-writes per shard: every acked write is committed on its
	// owning shard, and readable on each of that shard's machines whose
	// applied prefix covers it.
	for key, want := range acked {
		s, committed := keyShard[key]
		if !committed {
			t.Fatalf("acked write %q absent from every committed history", key)
		}
		for i := range recs[s] {
			if cl.Shard(s).Node(i).Crashed() {
				continue
			}
			var maxIdx uint64
			for _, rec := range recs[s][i].history {
				if rec.index > maxIdx {
					maxIdx = rec.index
				}
			}
			if keyIndex[key] > maxIdx {
				continue
			}
			got, ok := recs[s][i].kv.Get(key)
			if !ok || got != want {
				t.Fatalf("shard %d node %d: acked %q=%q, read (%q, %v)", s, i, key, want, got, ok)
			}
		}
	}
}

func TestBatchingEngagesUnderSaturation(t *testing.T) {
	// Pipeline depth 4, 64 concurrent submissions: the overflow must be
	// coalesced into batch entries, every op must still complete in
	// submission order, and each must apply exactly once.
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 8, PipelineDepth: 4, EnableMetrics: true})
	var applied []string
	for _, n := range cl.Nodes() {
		n := n
		n.OnApply(func(_ uint64, data []byte) {
			if n.ID() == 0 {
				applied = append(applied, string(data))
			}
		})
	}
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for !leader.Accelerated() {
		if !cl.Step() {
			t.Fatal("kernel drained before acceleration")
		}
	}

	const ops = 64
	var completions []int
	for i := 0; i < ops; i++ {
		i := i
		if err := leader.Propose([]byte(fmt.Sprintf("op%03d", i)), func(err error) {
			if err != nil {
				t.Errorf("op %d failed: %v", i, err)
				return
			}
			completions = append(completions, i)
		}); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	cl.Run(10 * time.Millisecond)

	if len(completions) != ops {
		t.Fatalf("completed %d/%d ops", len(completions), ops)
	}
	for i, got := range completions {
		if got != i {
			t.Fatalf("completion %d was op %d: batching broke submission order", i, got)
		}
	}
	if len(applied) != ops {
		t.Fatalf("leader applied %d commands, want %d", len(applied), ops)
	}
	for i, got := range applied {
		if want := fmt.Sprintf("op%03d", i); got != want {
			t.Fatalf("applied[%d] = %q, want %q", i, got, want)
		}
	}
	h := cl.Metrics().Histogram("mu.batch_ops_per_entry")
	if h.Count() == 0 || uint64(h.Sum()) <= h.Count() {
		t.Fatalf("batcher never coalesced: %d entries for %d ops", h.Count(), h.Sum())
	}
}
