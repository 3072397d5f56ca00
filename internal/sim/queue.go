package sim

// qent is one slot of the event queue: the event's (at, dom, lane, seq)
// key by value, next to the record it orders. Comparisons read the key
// straight from the slice and never touch the record.
type qent struct {
	at  Time
	seq uint64 // per-domain tie-breaker: FIFO among a domain's events of one lane at one instant
	// dl packs the scheduling domain and the lane as 2*dom + lane, so
	// ties at the same instant break by (dom, lane, seq) in one compare:
	// a domain's arrival lane (1) sorts after all of its lane-0 events at
	// that instant and before any event of domain dom+1.
	dl int32
	ev *event
}

// Lanes of a domain's events at one instant: every event is keyed in
// lane 0 except a SendTo addressed to the sending kernel itself, which
// arrives in lane 1 (see Kernel.SendTo).
const (
	laneEvent   int32 = 0
	laneArrival int32 = 1
)

// domLane packs a key's domain and lane into qent.dl.
func domLane(dom, lane int32) int32 { return 2*dom + lane }

// before reports whether a sorts strictly ahead of b. For a standalone
// kernel every event carries dom 0, so the order degenerates to the
// classic (at, lane, seq) FIFO; in a partitioned Group the key is a
// strict total order over all events of the simulation that depends
// only on where an event was *scheduled* (domain) and how (lane), never
// on how domains are packed into partitions — which is what makes
// same-seed runs bit-identical across partition counts.
func (a *qent) before(b *qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dl != b.dl {
		return a.dl < b.dl
	}
	return a.seq < b.seq
}

// eventQueue is an implicit 4-ary min-heap of qents ordered by before:
// the children of slot i are slots 4i+1 … 4i+4. Four-way fan-out halves
// the depth of a binary heap and keeps a node's children adjacent in
// memory (four 32-byte slots), which is what a pop-dominated queue wants.
// Sifting moves a hole rather than swapping. Because before is a strict
// total order, pop order is a function of the keys alone — never of
// insertion order or of the heap's internal shape.
type eventQueue []qent

// push inserts e.
func (q *eventQueue) push(e qent) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the minimum. The queue must not be empty.
func (q *eventQueue) pop() qent {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = qent{} // do not pin the record from the backing array
	h = h[:n]
	*q = h
	if n > 0 {
		h.siftDown(0, last)
	}
	return top
}

// init establishes the heap order over arbitrary contents.
func (q eventQueue) init() {
	if len(q) < 2 {
		return
	}
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.siftDown(i, q[i])
	}
}

// siftDown places e into the subtree rooted at the hole i.
func (q eventQueue) siftDown(i int, e qent) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			// A full node, the common case: a two-round tournament, whose
			// first two comparisons do not wait for one another, instead
			// of a running minimum.
			k := q[c : c+4 : c+4]
			a, b := 0, 2
			if k[1].before(&k[0]) {
				a = 1
			}
			if k[3].before(&k[2]) {
				b = 3
			}
			if k[b].before(&k[a]) {
				a = b
			}
			m = c + a
		} else {
			for j := c + 1; j < n; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
		}
		if !q[m].before(&e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}
