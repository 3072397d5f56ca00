package sim

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"p4ce/internal/metrics"
	"p4ce/internal/otrace"
)

// Group is a partitioned discrete-event kernel: one scheduling domain
// per independent component of the simulation (domain 0 for the shared
// switch/fabric, one per shard), packed into P partitions that advance
// in conservative lookahead windows on their own goroutines.
//
// # Determinism
//
// Every event carries a (time, domain, lane, sequence) key assigned
// where it was *scheduled*. Domains are fixed by the topology and lanes
// by the call (see Kernel.SendTo), so the key — and
// with it the global total order of events — is invariant under the
// partition count. Within a window, events of different partitions may
// execute in either real-time order, but the lookahead contract
// guarantees they cannot observe one another (any cross-partition
// effect lands at least one lookahead later, i.e. beyond the window),
// so every window interleaving produces the same simulation state.
// Cross-partition events travel through per-partition mailboxes drained
// by the coordinator between windows; they enter the destination heap
// with their original key, so delivery order is a deterministic
// function of (time, source domain, sequence) — never of goroutine
// scheduling. Same-seed runs are therefore bit-identical at
// Partitions: 1, 2, 4, ...
//
// # Lookahead
//
// The window width is the minimum link propagation delay of the fabric:
// a frame sent at time T on one partition cannot be delivered to
// another before T + propagation, so all partitions may safely execute
// [floor, floor+lookahead) in parallel, where floor is the earliest
// pending event across partitions.
//
// # Memory ordering
//
// During Run only the owning worker touches a partition's scheduler;
// the coordinator touches them between windows, after the window
// barrier. The barrier is a pair of seq-cst atomics (epoch, arrived),
// so every partition write is visible to the coordinator when it
// drains mailboxes, and vice versa when the next window opens. Reads
// of Processed/Pending/domain state from outside a Run observe the
// post-barrier state and are race-free; concurrent reads while a Run
// is in flight are not supported.
type Group struct {
	kernels   []*Kernel
	parts     []*sched
	lookahead Time
	now       Time

	stopped atomic.Bool
	// Window barrier: the coordinator publishes the next window bound
	// in window, then advances epoch; workers spin on epoch, run their
	// partition up to the bound, and bump arrived. A negative bound
	// tells the workers the run is over.
	window  atomic.Int64
	epoch   atomic.Uint64
	arrived atomic.Int32
}

const groupSeedMix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15: golden-ratio odd constant, splitmix64-style

// NewGroup builds a partitioned kernel with the given domain count
// (domain 0 is the fabric; domains 1..domains-1 are shards), packed
// into at most partitions partitions. The fabric always gets partition
// 0 to itself when partitions > 1; shard domains round-robin over the
// rest. Each domain's random stream derives deterministically from the
// root seed and the domain index, so no Rand() draw sequence depends on
// the partition layout. lookahead must be positive.
func NewGroup(seed int64, domains, partitions int, lookahead Time) *Group {
	if domains < 1 {
		panic("sim: NewGroup needs at least one domain")
	}
	if lookahead <= 0 {
		panic("sim: NewGroup needs a positive lookahead")
	}
	if partitions < 1 {
		partitions = 1
	}
	if partitions > domains {
		partitions = domains
	}
	g := &Group{lookahead: lookahead}
	g.parts = make([]*sched, partitions)
	for p := range g.parts {
		g.parts[p] = &sched{cur: quiesced, out: make([][]xev, partitions)}
		if partitions > 1 {
			g.parts[p].xtail = make([]chainTail, domains)
		}
	}
	g.kernels = make([]*Kernel, domains)
	for d := range g.kernels {
		p := 0
		if partitions > 1 && d > 0 {
			p = 1 + (d-1)%(partitions-1)
		}
		s := seed
		if d > 0 {
			s = seed ^ (int64(d) * groupSeedMix)
		}
		g.kernels[d] = &Kernel{
			rng:  rand.New(rand.NewSource(s)),
			dom:  int32(d),
			sc:   g.parts[p],
			g:    g,
			part: p,
		}
	}
	return g
}

// Kernel returns the kernel of domain d (0 = fabric).
func (g *Group) Kernel(d int) *Kernel { return g.kernels[d] }

// Root returns the fabric domain's kernel.
func (g *Group) Root() *Kernel { return g.kernels[0] }

// Domains returns the number of scheduling domains.
func (g *Group) Domains() int { return len(g.kernels) }

// Partitions returns the number of partitions (worker lanes).
func (g *Group) Partitions() int { return len(g.parts) }

// Lookahead returns the conservative window width.
func (g *Group) Lookahead() Time { return g.lookahead }

// Now returns the group's clock: the time of the last executed event,
// or the last Run bound. Individual domain clocks may trail it by less
// than one lookahead mid-run; after RunUntil(t) all domains read t.
func (g *Group) Now() Time { return g.now }

// SetMetrics attaches one registry to every domain kernel. The registry
// must be safe for concurrent use when partitions > 1 (the package
// metrics registry is).
func (g *Group) SetMetrics(r *metrics.Registry) {
	for _, k := range g.kernels {
		k.SetMetrics(r)
	}
}

// SetTracer attaches one tracer to every domain kernel.
func (g *Group) SetTracer(t *otrace.Tracer) {
	for _, k := range g.kernels {
		k.SetTracer(t)
	}
}

// Processed reports how many events have executed across all
// partitions. Call it only while the group is quiesced (no Run in
// flight): the per-partition counters are plain fields published by
// the window barrier. The count is invariant under the partition
// layout — the same events execute at every partition count.
func (g *Group) Processed() uint64 {
	var n uint64
	for _, sc := range g.parts {
		n += sc.processed
	}
	return n
}

// Pending reports how many events are scheduled and not canceled across
// all partitions, counting a cross-partition SendTo or Call made while
// the group is quiesced, which waits in its mailbox until the next Run
// or Step drains it. Same quiescence contract as Processed.
func (g *Group) Pending() int {
	n := 0
	for _, sc := range g.parts {
		n += sc.live
		for _, box := range sc.out {
			n += len(box)
		}
	}
	return n
}

// Stop makes the current Run/RunUntil return: after the current event
// on one partition, at the next window boundary on several — there all
// partitions finish the window, which keeps the set of executed events,
// and so the post-stop state, deterministic.
func (g *Group) Stop() { g.stopped.Store(true) }

// Step executes the single globally next event — the minimum (time,
// domain, lane, sequence) key across all partitions — on the calling
// goroutine, then drains any cross-partition event it produced. It is
// the sequential twin of the windowed run loop: both execute
// linearizations of the same key order, so states at quiesce points are
// identical. It reports whether an event was executed.
func (g *Group) Step() bool {
	if len(g.parts) > 1 { // one partition has no mailbox to look into
		g.drainAll()
	}
	var best *sched
	var bev *qent
	for _, sc := range g.parts {
		ev := sc.head()
		if ev != nil && (bev == nil || ev.before(bev)) {
			best, bev = sc, ev
		}
	}
	if best == nil {
		return false
	}
	at := best.fireTop() // head left the live minimum on top
	best.cur = quiesced
	if len(g.parts) > 1 { // one partition has no mailbox to look into
		g.drainFrom(best)
	}
	if at > g.now {
		g.now = at
	}
	return true
}

// Run executes events until every queue drains or Stop is called.
func (g *Group) Run() { g.run(maxTime, false) }

// RunUntil executes every event scheduled at or before t, then sets
// every domain clock to t (even if the queues drained earlier), unless
// Stop was called.
func (g *Group) RunUntil(t Time) { g.run(t, true) }

// RunFor advances the simulation by duration d. See RunUntil.
func (g *Group) RunFor(d Time) { g.RunUntil(g.now + d) }

func (g *Group) run(limit Time, fastForward bool) {
	g.stopped.Store(false)
	if len(g.parts) == 1 {
		g.runSeq(limit)
	} else {
		g.runPar(limit)
	}
	if !g.stopped.Load() {
		if fastForward {
			for _, k := range g.kernels {
				if k.now < limit {
					k.now = limit
				}
			}
			if g.now < limit {
				g.now = limit
			}
		}
	} else {
		for _, k := range g.kernels {
			if k.now > g.now {
				g.now = k.now
			}
		}
	}
}

// runSeq is the Partitions: 1 special case: one queue, no workers, no
// barrier — the classic single-threaded loop over the group key order.
func (g *Group) runSeq(limit Time) {
	if last := g.parts[0].run(limit, &g.stopped); last > g.now {
		g.now = last
	}
}

// runPar is the parallel loop: per-Run worker goroutines, a spin
// barrier per window, coordinator-drained mailboxes between windows.
// Workers are spawned whatever GOMAXPROCS says, so the race detector
// always observes the real concurrency; the spin falls back to
// runtime.Gosched, which keeps the barrier live on a single core.
func (g *Group) runPar(limit Time) {
	n := len(g.parts)
	g.drainAll()
	g.epoch.Store(0)
	g.arrived.Store(0)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go g.worker(i, &wg)
	}
	for !g.stopped.Load() {
		// The coordinator owns every queue between windows: find the
		// global floor.
		floor := Time(0)
		ok := false
		for _, sc := range g.parts {
			if e := sc.head(); e != nil && (!ok || e.at < floor) {
				floor, ok = e.at, true
			}
		}
		if !ok || floor > limit {
			break
		}
		w := floor + g.lookahead
		if w > limit+1 {
			w = limit + 1 // events at exactly limit must run
		}
		// Open the window: publish the bound, release the workers, run
		// partition 0 ourselves, then wait for everyone. A partition runs
		// every event strictly before w and is not cut short by Stop;
		// what it sends to other partitions lands at w or beyond by the
		// lookahead contract.
		g.window.Store(int64(w))
		g.arrived.Store(0)
		g.epoch.Add(1)
		g.parts[0].run(w-1, nil)
		g.await(int32(n - 1))
		// All partition writes are visible now: move cross-partition
		// events into their destination queues, keys intact.
		g.drainAll()
		if w-1 > g.now {
			g.now = w - 1
		}
	}
	// Tell the workers the run is over.
	g.window.Store(-1)
	g.arrived.Store(0)
	g.epoch.Add(1)
	wg.Wait()
}

// worker runs partition p's window every time the coordinator advances
// the epoch, until the published bound goes negative.
func (g *Group) worker(p int, wg *sync.WaitGroup) {
	defer wg.Done()
	last := uint64(0)
	for {
		for spins := 0; g.epoch.Load() == last; spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
		}
		last++
		w := g.window.Load()
		if w < 0 {
			return
		}
		g.parts[p].run(Time(w)-1, nil)
		g.arrived.Add(1)
	}
}

// await spins until want workers have arrived at the barrier.
func (g *Group) await(want int32) {
	for spins := 0; g.arrived.Load() != want; spins++ {
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// drainAll drains every partition's mailboxes. Besides what a window
// produced, they hold what was sent across partitions while the group
// was quiesced (a SendTo or Call from outside any event), which must be
// queued before a run or a Step looks for the earliest event: left in a
// mailbox through the first window, such an event would run after
// later-keyed events of its destination, and only on several
// partitions.
func (g *Group) drainAll() {
	for _, sc := range g.parts {
		g.drainFrom(sc)
	}
}

// drainFrom moves src's outgoing cross-partition events into the
// destination queues. Only the coordinator calls it (between windows, or
// after a sequential Step), so no locks are needed. Push order cannot
// influence pop order: the queue's comparator is a strict total order on
// the (time, domain, lane, sequence) keys the events already carry. An
// event whose key is adjacent to the last one its domain sent to the same
// partition links behind it by the rule of a same-partition push (see
// chainTail): events that run on one kernel go to one partition, and a
// mailbox holds each domain's events in seq order. A chain therefore
// costs the same heap entries at every partition count. The last
// drained record is still queued whenever the rule can admit: an event
// crossing partitions lands at least one lookahead after it was sent,
// beyond the window it was sent in.
func (g *Group) drainFrom(src *sched) {
	for dst, box := range src.out {
		if len(box) == 0 {
			continue
		}
		d := g.parts[dst]
		for i := range box {
			x := &box[i]
			ev := d.free.Get()
			ev.k = x.k
			ev.fn, ev.afn, ev.arg, ev.bfn, ev.buf = x.fn, x.afn, x.arg, x.bfn, x.buf
			if tail := &d.xtail[x.dom]; tail.admits(x.at, laneEvent, x.seq, x.k) {
				tail.ev.next = ev
			} else {
				d.events.push(qent{at: x.at, seq: x.seq, dl: domLane(x.dom, laneEvent), ev: ev})
			}
			d.xtail[x.dom] = chainTail{ev: ev, gen: ev.gen, at: x.at, seq: x.seq}
			d.live++
			*x = xev{}
		}
		src.out[dst] = box[:0]
	}
}
