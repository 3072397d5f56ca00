// Quickstart: bring up a three-machine P4CE cluster, replicate a few
// values through the programmable switch, and watch every machine apply
// them in the same order.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"p4ce"
)

func main() {
	// Three machines (one leader + two replicas) star-cabled to a
	// simulated Tofino running the P4CE program.
	cluster := p4ce.NewCluster(p4ce.Options{
		Nodes: 3,
		Mode:  p4ce.ModeP4CE,
	})

	// Observe what each machine applies. Callbacks from the machines run
	// on their shard's scheduling domain, so they read the shard's clock.
	shard := cluster.Shard(0)
	for _, node := range cluster.Nodes() {
		node := node
		node.OnApply(func(index uint64, data []byte) {
			fmt.Printf("  [%v] node %d applied #%d: %q\n",
				shard.Now().Round(time.Microsecond), node.ID(), index, data)
		})
	}

	// Run until a leader is elected and its communication group is
	// installed on the switch (the paper's 40 ms reconfiguration).
	leader, err := cluster.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leader: node %d (accelerated=%v, view %d) after %v\n",
		leader.ID(), leader.Accelerated(), leader.Term(), cluster.Now().Round(time.Microsecond))

	// Propose a handful of values. Each is decided after a single
	// round-trip: one write to the switch, one aggregated ACK back.
	for i := 0; i < 5; i++ {
		value := fmt.Sprintf("value-%d", i)
		proposedAt := shard.Now()
		err := leader.Propose([]byte(value), func(err error) {
			if err != nil {
				log.Fatalf("proposal failed: %v", err)
			}
			fmt.Printf("decided %q in %v\n", value, shard.Now()-proposedAt)
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Drive the simulation until everything is applied everywhere.
	cluster.Run(5 * time.Millisecond)

	st := cluster.SwitchStats()
	fmt.Printf("\nswitch: %d writes scattered, %d ACKs aggregated in-network, %d forwarded\n",
		st.Scattered, st.AcksAggregated, st.AcksForwarded)
	fmt.Printf("commit index everywhere: ")
	for _, n := range cluster.Nodes() {
		fmt.Printf("node%d=%d ", n.ID(), n.CommitIndex())
	}
	fmt.Println()
}
