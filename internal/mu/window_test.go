package mu_test

// The re-replication cache stands in for the log ring a real leader
// re-sends from: it keeps CatchUpWindow entries or one log ring of
// encoded bytes, whichever is fewer, and a peer lagging past it is
// excluded rather than caught up.

import (
	"bytes"
	"testing"

	"p4ce/internal/mu"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// proposeBurst proposes count values of size bytes on the leader and
// runs the cluster until they commit.
func (c *cluster) proposeBurst(t *testing.T, leader *mu.Node, count, size int) {
	t.Helper()
	payload := make([]byte, size)
	committed := 0
	for i := 0; i < count; i++ {
		if err := leader.Propose(payload, func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.k.RunFor(2 * sim.Millisecond)
	if committed != count {
		t.Fatalf("committed %d of %d", committed, count)
	}
}

// checkWindow verifies that n caches exactly the entries from
// LowestCached through LastIndex and returns how many and their encoded
// bytes.
func checkWindow(t *testing.T, n *mu.Node) (entries, held int) {
	t.Helper()
	low, last := n.LowestCached(), n.LastIndex()
	for idx := uint64(1); idx <= last; idx++ {
		enc, _, ok := n.Cached(idx)
		if ok != (idx >= low) {
			t.Fatalf("node %d: entry %d cached=%v, window [%d, %d]", n.ID(), idx, ok, low, last)
		}
		if ok {
			entries++
			held += len(enc)
		}
	}
	return entries, held
}

// partition blackholes both directions of node i's cable, or heals it.
func (c *cluster) partition(i int, cut bool) {
	var drop simnet.LossFunc
	if cut {
		drop = func([]byte) bool { return true }
	}
	c.ports[i].SetLossFunc(drop)
	c.ports[i].Peer().SetLossFunc(drop)
}

func TestCatchUpWindowBoundedByLogRing(t *testing.T) {
	const (
		size  = 4096
		entry = 4129 // encoded: the value and 33 bytes of framing
	)
	logSize := mu.DefaultConfig().LogSize

	t.Run("4KiB holds one ring of bytes", func(t *testing.T) {
		c := newCluster(t, 3, nil)
		leader := c.settle(t, 10*sim.Millisecond)
		for i := 0; i < 15; i++ {
			c.proposeBurst(t, leader, 100, size)
		}
		for _, n := range c.nodes {
			entries, held := checkWindow(t, n)
			if held > logSize || held+entry <= logSize {
				t.Fatalf("node %d caches %d bytes in %d entries, want at most %d and no room for one more %d-byte entry",
					n.ID(), held, entries, logSize, entry)
			}
			if entries >= mu.CatchUpWindow {
				t.Fatalf("node %d caches %d entries: the byte bound did not bind", n.ID(), entries)
			}
		}
	})

	// lag partitions node 2 and commits 4 KiB values one at a time until
	// done(low, fromLo, fromHi) holds for the start of the leader's
	// window and node 2's first missing index, then heals. That index is
	// fromHi (node 2's last index + 1) or fromLo (its commit index + 1):
	// node 2 discards an entry whose commit it missed if it gives up a
	// takeover of its own. One value moves the window by up to two
	// entries (the value and a commit no-op).
	lag := func(t *testing.T, done func(low, fromLo, fromHi uint64) bool) (*cluster, *mu.Node, uint64, uint64) {
		c := newCluster(t, 3, nil)
		leader := c.settle(t, 10*sim.Millisecond)
		c.proposeBurst(t, leader, 200, size)
		c.partition(2, true)
		c.k.RunFor(2 * sim.Millisecond)
		peer := c.nodes[2]
		fromLo, fromHi := peer.CommitIndex()+1, peer.LastIndex()+1
		for !done(leader.LowestCached(), fromLo, fromHi) {
			c.proposeBurst(t, leader, 1, size)
		}
		if lagged := leader.LastIndex() - fromLo + 1; lagged >= mu.CatchUpWindow {
			t.Fatalf("lag of %d entries reaches the count bound", lagged)
		}
		c.partition(2, false)
		c.k.RunFor(20 * sim.Millisecond)
		if !leader.IsLeader() {
			t.Fatal("leader lost its role across the heal")
		}
		return c, leader, fromLo, fromHi
	}

	t.Run("peer just inside the window is re-replicated", func(t *testing.T) {
		c, leader, fromLo, _ := lag(t, func(low, fromLo, _ uint64) bool { return low+2 >= fromLo })
		if low := leader.LowestCached(); low > fromLo {
			t.Fatalf("window starts at %d, past node 2's first missing entry %d", low, fromLo)
		}
		if got := leader.ReplicationPaths(); got != 2 {
			t.Fatalf("leader has %d replication paths, want 2", got)
		}
		peer := c.nodes[2]
		if peer.LastIndex() != leader.LastIndex() {
			t.Fatalf("node 2 ends at %d, leader at %d", peer.LastIndex(), leader.LastIndex())
		}
		for idx := fromLo; idx <= leader.LastIndex(); idx++ {
			want, off, ok := leader.Cached(idx)
			if !ok {
				t.Fatalf("leader evicted entry %d", idx)
			}
			if got := peer.LogRing()[off : off+len(want)]; !bytes.Equal(got, want) {
				t.Fatalf("entry %d differs in node 2's ring", idx)
			}
		}
		if len(c.applied[2]) != len(c.applied[1]) {
			t.Fatalf("node 2 applied %d entries, node 1 %d", len(c.applied[2]), len(c.applied[1]))
		}
	})

	t.Run("peer just past the window is excluded", func(t *testing.T) {
		c, leader, _, fromHi := lag(t, func(low, _, fromHi uint64) bool { return low > fromHi })
		if got := leader.ReplicationPaths(); got != 1 {
			t.Fatalf("leader has %d replication paths, want 1 (node 2 excluded)", got)
		}
		if got := c.nodes[2].LastIndex(); got >= fromHi {
			t.Fatalf("node 2 ends at %d, past its first missing entry %d: it was caught up from beyond the window", got, fromHi)
		}
	})

	t.Run("64B keeps CatchUpWindow entries", func(t *testing.T) {
		c := newCluster(t, 3, nil)
		leader := c.settle(t, 10*sim.Millisecond)
		// More than a ring of bytes in all, so a byte total that missed
		// the count bound's evictions would show.
		for i := 0; i < 500; i++ {
			c.proposeBurst(t, leader, 100, 64)
		}
		for _, n := range c.nodes {
			entries, held := checkWindow(t, n)
			if entries != mu.CatchUpWindow || n.LowestCached() != n.LastIndex()-mu.CatchUpWindow+1 {
				t.Fatalf("node %d caches %d entries from %d to %d, want the last %d",
					n.ID(), entries, n.LowestCached(), n.LastIndex(), mu.CatchUpWindow)
			}
			if held > logSize/8 {
				t.Fatalf("node %d caches %d bytes of 64 B values", n.ID(), held)
			}
		}
	})
}
