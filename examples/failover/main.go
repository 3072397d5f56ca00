// Fail-over walkthrough: reproduce the paper's §V-E failure scenarios on
// one cluster — a crashed replica, a crashed leader, and finally a
// crashed programmable switch with recovery over the backup fabric —
// printing the timeline of every hand-off.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"p4ce"
)

func main() {
	cluster := p4ce.NewCluster(p4ce.Options{
		Nodes:        5,
		Mode:         p4ce.ModeP4CE,
		BackupFabric: true, // the alternative route used when the switch dies
	})
	// The machines' callbacks run on their shard's scheduling domain, so
	// everything here is timed with the shard's clock.
	shard := cluster.Shard(0)
	stamp := func(format string, args ...any) {
		fmt.Printf("[%9v] ", shard.Now().Round(10*time.Microsecond))
		fmt.Printf(format+"\n", args...)
	}
	quiet := false
	for _, n := range cluster.Nodes() {
		n := n
		n.OnLeaderChange(func(term uint64, leaderID int) {
			if n.ID() == leaderID && !quiet {
				stamp("node %d claims leadership", leaderID)
			}
		})
	}

	leader, err := cluster.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	stamp("node %d leads, in-network acceleration active", leader.ID())

	// Each commit must land within this much simulated time; a hand-off
	// that never completes fails the walkthrough instead of hanging it.
	const commitBound = 10 * time.Millisecond
	commit := func(tag string) {
		l := cluster.Leader()
		if l == nil {
			log.Fatalf("%s: no leader", tag)
		}
		start := shard.Now()
		done := false
		_ = l.Propose([]byte(tag), func(err error) {
			if err == nil {
				stamp("%s committed in %v (accelerated=%v)", tag, shard.Now()-start, l.Accelerated())
				done = true
			}
		})
		for !done && shard.Now()-start < commitBound && cluster.Step() {
		}
		if !done {
			log.Fatalf("%s did not commit within %v of simulated time", tag, commitBound)
		}
	}
	commit("baseline")

	// 1. Crash a replica: commits continue; the leader excludes it and
	// updates the switch group (≈40 ms, Table IV).
	stamp("crashing replica node 4")
	cluster.Node(4).Crash()
	cluster.Run(50 * time.Millisecond)
	commit("after-replica-crash")
	stamp("switch group now multicasts to %d replicas", len(cluster.Groups()[0].Replicas))

	// 2. Crash the leader: node 1 takes over, reconfigures the switch.
	stamp("crashing leader node %d", cluster.Leader().ID())
	cluster.Leader().Crash()
	cluster.Run(60 * time.Millisecond)
	commit("after-leader-crash")

	// 3. Crash the switch: the cluster reroutes over the backup fabric
	// and continues un-accelerated (≈60 ms, Table IV).
	stamp("powering the programmable switch off")
	// While no route exists every machine's takeover attempts abort in a
	// loop; suppress that churn until the backup route converges.
	quiet = true
	cluster.CrashSwitch()
	cluster.Run(80 * time.Millisecond)
	quiet = false
	commit("after-switch-crash")
	stamp("leader on backup route: %v, accelerated: %v",
		cluster.Leader().OnBackupRoute(), cluster.Leader().Accelerated())
}
