package p4ce

// Randomized safety check: across many seeds and random crash schedules,
// no two machines may ever apply different commands at the same log
// index, and every value acknowledged to a client must survive on the
// machines that stay up. This is the invariant the whole design rests
// on (§III-A): in-network acceleration must not weaken Mu's guarantees.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// applyRecord tracks what one machine applied.
type applyRecord struct {
	seq []string // command payloads in apply order
}

func TestSafetyUnderRandomCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fuzz")
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSafetySchedule(t, seed)
		})
	}
}

func runSafetySchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 3 + 2*rng.Intn(2) // 3 or 5
	// Tracing is a pure observer (identical event sequence on or off),
	// so the fuzz runs with it on: an invariant failure dumps the flight
	// recorder with the last operations' per-stage timings.
	cl := NewCluster(Options{
		Nodes:         nodes,
		Mode:          ModeP4CE,
		Seed:          seed,
		AsyncReconfig: rng.Intn(2) == 0,
		EnableTracing: true,
	})
	records := make([]applyRecord, nodes)
	for i, n := range cl.Nodes() {
		i := i
		n.OnApply(func(index uint64, data []byte) {
			records[i].seq = append(records[i].seq, string(data))
		})
	}
	if _, err := cl.RunUntilLeader(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Workload: a client that proposes continuously, retrying failures,
	// and records which values were acknowledged.
	acked := make(map[string]bool)
	next := 0
	sh := cl.Shard(0)
	var put func()
	put = func() {
		if next >= 120 {
			return
		}
		l := cl.Leader()
		if l == nil {
			sh.After(500*time.Microsecond, put)
			return
		}
		value := fmt.Sprintf("s%d-v%04d", seed, next)
		err := l.Propose([]byte(value), func(err error) {
			if err == nil {
				acked[value] = true
				next++
			}
			sh.After(10*time.Microsecond, put)
		})
		if err != nil {
			sh.After(500*time.Microsecond, put)
		}
	}
	put()

	// Crash up to f machines at random instants (never losing quorum),
	// possibly including the leader.
	f := nodes / 2
	crashes := 1 + rng.Intn(f)
	alive := nodes
	for c := 0; c < crashes; c++ {
		at := time.Duration(1+rng.Intn(20)) * time.Millisecond
		sh.After(at, func() {
			if alive <= nodes-f {
				return
			}
			// Pick a random live machine.
			candidates := []*Node{}
			for _, n := range cl.Nodes() {
				if !n.Crashed() {
					candidates = append(candidates, n)
				}
			}
			victim := candidates[rng.Intn(len(candidates))]
			victim.Crash()
			alive--
		})
	}

	cl.Run(250 * time.Millisecond)

	// Invariant 1: agreement — all live machines applied the same
	// sequence (one may be a prefix of another only at the very tail,
	// bounded by the commit-propagation lag).
	var longest []string
	for i, n := range cl.Nodes() {
		if n.Crashed() {
			continue
		}
		if len(records[i].seq) > len(longest) {
			longest = records[i].seq
		}
	}
	for i, n := range cl.Nodes() {
		if n.Crashed() {
			continue
		}
		seq := records[i].seq
		for j, v := range seq {
			if v != longest[j] {
				failWithFlightDump(t, cl, fmt.Sprintf("safety-seed%d", seed),
					"seed %d: node %d applied %q at position %d, another machine applied %q",
					seed, i, v, j, longest[j])
			}
		}
		if len(longest)-len(seq) > 2 {
			failWithFlightDump(t, cl, fmt.Sprintf("safety-seed%d", seed),
				"seed %d: node %d lags %d entries behind after quiescence",
				seed, i, len(longest)-len(seq))
		}
	}

	// Invariant 2: durability — every acknowledged value is applied on
	// the live machines.
	appliedSet := make(map[string]bool, len(longest))
	for _, v := range longest {
		appliedSet[v] = true
	}
	for v := range acked {
		if !appliedSet[v] {
			failWithFlightDump(t, cl, fmt.Sprintf("safety-seed%d", seed),
				"seed %d: acknowledged value %q lost", seed, v)
		}
	}

	// Invariant 3: liveness — with a quorum alive, the workload made
	// real progress.
	if len(acked) < 30 {
		t.Fatalf("seed %d: only %d values acknowledged", seed, len(acked))
	}
}
