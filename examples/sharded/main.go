// Sharded consensus: three independent P4CE groups over the one
// simulated Tofino, each owning a key range by hash. A router fans a
// write-heavy KV workload out across the shards; mid-stream, shard 0's
// leader crashes — its keys stall for one fail-over while the other
// shards keep committing at full speed.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"time"

	"p4ce"
)

const (
	shards = 3
	nodes  = 3 // per shard
)

func main() {
	cluster := p4ce.NewCluster(p4ce.Options{
		Nodes:  nodes,
		Mode:   p4ce.ModeP4CE,
		Shards: shards,
		// Fail over at Mu speed while the switch reconfigures.
		AsyncReconfig: true,
	})

	// One KV state machine per machine, duplicate-suppressed so client
	// retries through the crash stay exactly-once.
	stores := make([]*p4ce.KV, len(cluster.Nodes()))
	for i, node := range cluster.Nodes() {
		stores[i] = p4ce.NewKV()
		node.Bind(p4ce.NewDedup(stores[i]))
	}

	leaders, err := cluster.RunUntilAllLeaders(300 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	// Keep stepping until every shard's group is installed on the switch
	// (the 40 ms reconfiguration runs once per shard, concurrently).
	for deadline := cluster.Now() + 300*time.Millisecond; cluster.Now() < deadline; {
		all := true
		for _, l := range leaders {
			if !l.Accelerated() {
				all = false
				break
			}
		}
		if all || !cluster.Step() {
			break
		}
	}
	for s, l := range leaders {
		fmt.Printf("shard %d: node %d leads (accelerated=%v)\n", s, l.ID(), l.Accelerated())
	}

	// The router keeps one pinned session per shard and places each key
	// by hash; ShardForKey is the same pure function on every client.
	router := cluster.NewRouter()
	acked := make([]int, shards)
	const writes = 150
	for i := 0; i < writes; i++ {
		i := i
		key := fmt.Sprintf("user:%04d", i)
		owner := cluster.ShardForKey(key)
		// Each write is issued on its owner shard's scheduling domain.
		cluster.Shard(owner).After(time.Duration(i)*20*time.Microsecond, func() {
			router.SubmitKV(key, fmt.Sprintf("balance=%d", i*100), func(err error) {
				if err != nil {
					log.Fatalf("write %q failed permanently: %v", key, err)
				}
				acked[owner]++
			})
		})
	}

	// Crash shard 0's leader mid-workload. Shards 1 and 2 share the
	// switch but nothing else — their pipelines never notice.
	victim, shard0 := leaders[0], cluster.Shard(0)
	shard0.After(1*time.Millisecond, func() {
		fmt.Printf("[%v] crashing shard 0's leader (node %d)\n",
			shard0.Now().Round(time.Microsecond), victim.ID())
		victim.Crash()
	})

	cluster.Run(120 * time.Millisecond)

	total := 0
	for s := 0; s < shards; s++ {
		l := cluster.ShardLeader(s)
		fmt.Printf("shard %d: node %d leads view %d, commit index %d, %d writes acked\n",
			s, l.ID(), l.Term(), l.CommitIndex(), acked[s])
		total += acked[s]
	}
	if total != writes {
		log.Fatalf("acked %d of %d writes", total, writes)
	}

	// Placement check: every key lives on (exactly) its hash-owner
	// shard, on every live machine of that shard.
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("user:%04d", i)
		owner := cluster.ShardForKey(key)
		for s := 0; s < shards; s++ {
			for n := 0; n < nodes; n++ {
				// Node IDs are shard-local; stores is indexed by the global
				// machine order of cluster.Nodes() (shard-major).
				if cluster.Shard(s).Node(n).Crashed() {
					continue
				}
				_, ok := stores[s*nodes+n].Get(key)
				if ok != (s == owner) {
					log.Fatalf("%q: found=%v on shard %d, owner is shard %d", key, ok, s, owner)
				}
			}
		}
	}
	fmt.Printf("all %d writes landed on their hash-owner shards; %d survived a leader crash\n",
		writes, writes-acked[0])
}
