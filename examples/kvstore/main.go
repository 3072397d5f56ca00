// Replicated key-value store: a five-machine P4CE cluster serving a
// write-heavy workload while the leader crashes mid-stream. The store
// stays available (a new leader takes over within a fail-over) and every
// surviving replica converges to the same state.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"reflect"
	"time"

	"p4ce"
)

func main() {
	cluster := p4ce.NewCluster(p4ce.Options{
		Nodes: 5,
		Mode:  p4ce.ModeP4CE,
		// Lesson 3 from the paper: reconfigure the switch asynchronously
		// so fail-over is as fast as Mu's.
		AsyncReconfig: true,
	})

	// Bind one KV state machine per machine, wrapped with per-session
	// duplicate suppression so client retries are exactly-once.
	stores := make([]*p4ce.KV, 5)
	for i, node := range cluster.Nodes() {
		stores[i] = p4ce.NewKV()
		node.Bind(p4ce.NewDedup(stores[i]))
	}

	leader, err := cluster.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %d leads\n", leader.ID())

	// A session client: it tracks the leader, retries through view
	// changes, and its (session, sequence) envelopes make every retry
	// safe — even one whose original committed just before the crash.
	client := cluster.NewClient()
	client.RetryDelay = 500 * time.Microsecond
	acked := 0
	const writes = 200
	// Whatever touches the machines is scheduled on their shard's domain
	// and timed with its clock.
	shard := cluster.Shard(0)
	for i := 0; i < writes; i++ {
		i := i
		shard.After(time.Duration(i)*20*time.Microsecond, func() {
			client.SubmitKV(fmt.Sprintf("user:%04d", i), fmt.Sprintf("balance=%d", i*100), func(err error) {
				if err != nil {
					log.Fatalf("write %d failed permanently: %v", i, err)
				}
				acked++
			})
		})
	}

	// Crash the leader mid-workload.
	shard.After(2*time.Millisecond, func() {
		fmt.Printf("[%v] crashing the leader (node %d)\n",
			shard.Now().Round(time.Microsecond), leader.ID())
		leader.Crash()
	})

	cluster.Run(100 * time.Millisecond)

	next := cluster.Leader()
	fmt.Printf("node %d took over (view %d); %d writes acked, %d retries\n",
		next.ID(), next.Term(), acked, int(client.Retries))

	// Every surviving replica holds the same state.
	reference := stores[next.ID()].Snapshot()
	for i, node := range cluster.Nodes() {
		if node.Crashed() {
			continue
		}
		if !reflect.DeepEqual(stores[i].Snapshot(), reference) {
			log.Fatalf("node %d diverged!", i)
		}
	}
	fmt.Printf("all %d surviving replicas agree on %d keys\n", 4, len(reference))
	if v, ok := stores[next.ID()].Get("user:0042"); ok {
		fmt.Printf("user:0042 → %s\n", v)
	}
}
