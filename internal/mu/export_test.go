package mu

// LowestCached exposes lowestCached to the package's external tests.
func (n *Node) LowestCached() uint64 { return n.lowestCached() }

// Cached returns the re-replication cache's copy of entry idx and the
// entry's ring offset.
func (n *Node) Cached(idx uint64) ([]byte, int, bool) {
	ent, ok := n.recent.get(idx)
	return ent.bytes, ent.off, ok
}

// LogRing returns the machine's log ring.
func (n *Node) LogRing() []byte { return n.logBuf }
