package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"

	"p4ce/internal/metrics"
	"p4ce/internal/otrace"
)

// Time is a simulated instant, measured in nanoseconds since the start of
// the simulation. It is deliberately distinct from time.Time: simulated
// time only advances when the kernel processes events.
type Time int64

// Duration constants for simulated time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with a unit suited to its magnitude.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a single scheduled callback. Its (at, dom, lane, seq) key
// lives in the queue slot that points here (see qent), not in the
// record; a record linked behind another (next) takes no slot of its own
// and carries its predecessor's key with seq+1. Events are pooled: once
// popped (executed or canceled) the record goes back on the scheduler's
// free list and its gen counter is bumped, which invalidates any Timer
// handle still pointing at it — so a handle needs no "still queued" flag
// beyond the generation it was issued at.
type event struct {
	// The fields queue upkeep reads (skim, compact, chainTail.admits)
	// come first, within one cache line.
	gen uint64 // recycle generation, guards stale Timer handles
	// next is the record of the same domain's next push, linked here
	// because its key is adjacent to this one's (see chainTail).
	next     *event
	k        *Kernel // run domain: its clock advances to the key's time when the event fires
	canceled bool
	// Exactly one of fn / afn / bfn is set. afn runs with arg, letting
	// hot paths reuse a persistent callback instead of allocating a
	// closure per schedule; bfn additionally carries a byte slice so
	// frame deliveries cross partitions without boxing the slice.
	fn  func()
	afn func(any)
	arg any
	bfn func(any, []byte)
	buf []byte
}

// compactThreshold is the minimum queue size before cancel-compaction is
// considered; below it the canceled residue is too small to matter.
const compactThreshold = 64

// maxTime is the run bound that admits every event, with headroom for
// the window arithmetic (limit+1, floor+lookahead) not to overflow.
const maxTime = Time(1<<62 - 1)

// sched is the per-partition scheduler: the event queue, the recycled
// record pool, the frame buffer pool and the bookkeeping counters. Every
// domain kernel of the same partition shares one, so the partition's
// worker goroutine is the only toucher during a run (the coordinator
// touches it only between windows, after a barrier, which establishes
// the necessary happens-before edges).
type sched struct {
	events    eventQueue
	free      FreeList[event] // recycled event records
	bufs      Buffers
	live      int // records scheduled and not canceled
	ncanceled int // canceled records still resident in the queue
	processed uint64
	// split holds the entries compaction cuts out of a chain at a
	// canceled member, reused so that compaction does not allocate.
	split []qent
	// xtail holds, per sending domain, the last cross-partition event
	// drained into this partition (see Group.drainFrom).
	xtail []chainTail
	// cur is the domain whose event is executing on this partition, or
	// quiesced between runs. Scheduling under another domain's clock
	// and sequence counter while it is set is a bug (see Kernel.checkDomain).
	cur int32
	// out holds cross-partition events produced during the current
	// window, one mailbox per destination partition. The coordinator
	// drains every mailbox between windows, so ordering is a pure
	// function of the event keys.
	out [][]xev
	// sites caches the per-site event counters by callback code
	// pointer; see countSite.
	sites map[uintptr]*metrics.Counter
}

// quiesced is sched.cur while no event is executing.
const quiesced = -1

// xev is a cross-partition event in flight: the full (at, dom, seq) key
// assigned at schedule time, always in lane 0, plus the callback.
// Because the key is fixed by the sender, delivery order in the
// destination queue is a deterministic function of (time, source
// domain, sequence) and never of goroutine scheduling.
type xev struct {
	at  Time
	dom int32
	seq uint64
	k   *Kernel
	fn  func()
	afn func(any)
	arg any
	bfn func(any, []byte)
	buf []byte
}

// chainTail is a domain's last queued record on one path (a push into
// its own partition's queue, or a drain into another's) and the key it
// was given. The domain's next record on that path links behind it,
// taking no heap slot, when the key is adjacent (same instant, same
// lane, next seq), the run kernel is the same and the tail is still
// queued: nothing can sort between adjacent keys, so the link keeps the
// total order. Consecutive seqs in different lanes are not adjacent:
// every later lane-0 event of the instant sorts between them.
type chainTail struct {
	ev   *event
	gen  uint64
	at   Time
	seq  uint64
	lane int32
}

// admits reports whether a record keyed (at, lane, seq) of the tail's
// domain, to run on dst, links behind the tail.
func (c *chainTail) admits(at Time, lane int32, seq uint64, dst *Kernel) bool {
	return c.at == at && c.seq+1 == seq && c.lane == lane && c.ev != nil &&
		c.ev.gen == c.gen && !c.ev.canceled && c.ev.k == dst
}

// release returns a popped event record to the free list. Bumping gen
// here is what makes stale Timer handles inert.
func (sc *sched) release(ev *event) {
	ev.gen++
	ev.next = nil
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.bfn = nil
	ev.buf = nil
	ev.k = nil
	ev.canceled = false
	sc.free.Put(ev)
}

// skim removes canceled records from the top of the queue and reports
// whether a live event is left there.
func (sc *sched) skim() bool {
	for len(sc.events) > 0 {
		top := &sc.events[0]
		ev := top.ev
		if !ev.canceled {
			return true
		}
		if ev.next != nil {
			top.ev, top.seq = ev.next, top.seq+1 // still the minimum; see fireTop
		} else {
			sc.events.pop()
		}
		sc.release(ev)
		sc.ncanceled--
	}
	return false
}

// fireTop executes the live event on top of the queue, advancing its run
// domain's clock to its timestamp, and returns that timestamp. A record
// with a successor hands the slot to it in place: the successor's key is
// adjacent, so it is still the minimum and no sift is needed. The slot
// is the chain's cursor. An event the callback pushes for the same
// instant that sorts before the successor (a smaller domain's, when the
// chain runs on a domain other than its own) sifts above it like any
// other push and fires first.
func (sc *sched) fireTop() Time {
	top := &sc.events[0]
	ev, at := top.ev, top.at
	next := ev.next
	if next != nil {
		top.ev, top.seq = next, top.seq+1
	} else {
		sc.events.pop()
	}
	sc.live--
	k := ev.k
	k.now = at
	sc.cur = k.dom
	if ev != k.follow || ev.gen != k.followGen {
		sc.processed++
	}
	if k.follow = next; next != nil {
		k.followGen = next.gen
	}
	// Copy the callback out and recycle the record before invoking it,
	// so the callback's own scheduling can reuse it.
	fn, afn, arg, bfn, buf := ev.fn, ev.afn, ev.arg, ev.bfn, ev.buf
	if r := k.metrics; r != nil {
		sc.countSite(r, ev)
	}
	sc.release(ev)
	switch {
	case bfn != nil:
		bfn(arg, buf)
	case afn != nil:
		afn(arg)
	default:
		fn()
	}
	return at
}

// countSite bumps the sim.events.<site> counter of ev's callback,
// resolving its code pointer to a name on the callback's first event.
// The site is the function's package-qualified name with the import
// path and the method-value suffix trimmed, as in
// sim.events.tofino.(*Switch).egressEmit; closures keep their .funcN
// suffix. These counters count callbacks; Processed, with or without a
// registry, counts the same events less the linked ones that run right
// behind their predecessor. The cache assumes
// what Group.SetMetrics sets up: one registry for every domain.
func (sc *sched) countSite(r *metrics.Registry, ev *event) {
	var fn any = ev.fn
	switch {
	case ev.bfn != nil:
		fn = ev.bfn
	case ev.afn != nil:
		fn = ev.afn
	}
	pc := reflect.ValueOf(fn).Pointer()
	c := sc.sites[pc]
	if c == nil {
		if sc.sites == nil {
			sc.sites = make(map[uintptr]*metrics.Counter)
		}
		name := "unknown"
		if f := runtime.FuncForPC(pc); f != nil {
			name = strings.TrimSuffix(f.Name(), "-fm")
			name = name[strings.LastIndexByte(name, '/')+1:]
		}
		c = r.Counter("sim.events." + name)
		sc.sites[pc] = c
	}
	c.Inc()
}

// run executes, in key order, every event scheduled at or before limit:
// one look at the queue top per event. Events scheduled into this
// partition while it runs keep it going (they land at the current
// instant or later, still inside the queue). A non-nil stop is read after
// each event and ends the run when set. It returns the time of the last
// event executed, or -1 when none ran.
func (sc *sched) run(limit Time, stop *atomic.Bool) Time {
	last := Time(-1)
	for sc.skim() && sc.events[0].at <= limit {
		last = sc.fireTop()
		if stop != nil && stop.Load() {
			break
		}
	}
	sc.cur = quiesced
	return last
}

// head returns the next non-canceled event's queue slot without popping
// it, or nil when the queue is empty. The pointer is valid until the
// next queue operation.
func (sc *sched) head() *qent {
	if !sc.skim() {
		return nil
	}
	return &sc.events[0]
}

// compact drops canceled events once they outnumber the live ones, so a
// stopped long-deadline timer (a retransmission timeout re-armed on
// every ACK, say) does not pin queue memory until its deadline.
// Filtering preserves each survivor's (at, dom, lane, seq) key — a chain
// cut at a canceled member goes on as a new entry keyed at its next
// survivor — and re-heapifying cannot change pop order — the comparator
// is a strict total order on those keys — so compaction is invisible to
// a seeded run.
func (sc *sched) compact() {
	kept, split := sc.events[:0], sc.split[:0]
	for _, e := range sc.events {
		if e.ev.next == nil { // not a chain
			if e.ev.canceled {
				sc.release(e.ev)
			} else {
				kept = append(kept, e)
			}
			continue
		}
		var last *event // the survivor the next one links behind
		cut := false    // a survivor already heads an entry of this chain
		for ev := e.ev; ev != nil; e.seq++ {
			next := ev.next
			switch {
			case ev.canceled:
				if last != nil {
					last.next, last = nil, nil
				}
				sc.release(ev)
			case last != nil:
				last = ev
			case !cut:
				// At most one entry per slot read, so kept never
				// overtakes the range.
				e.ev, last, cut = ev, ev, true
				kept = append(kept, e)
			default:
				e.ev, last = ev, ev
				split = append(split, e)
			}
			ev = next
		}
	}
	n := len(sc.events)
	kept = append(kept, split...)
	if len(kept) < n {
		// Clear the tail so dropped records do not linger in the backing array.
		clear(sc.events[len(kept):n])
	}
	clear(split)
	sc.events, sc.split = kept, split[:0]
	sc.ncanceled = 0
	sc.events.init()
}

// resident counts the records in the queue, live or canceled, chained
// ones included.
func (sc *sched) resident() int {
	n := 0
	for _, e := range sc.events {
		for ev := e.ev; ev != nil; ev = ev.next {
			n++
		}
	}
	return n
}

// Kernel is one scheduling domain of a Group — its clock, sequence
// counter and random stream — and a handle for driving the whole group.
// The zero value is not usable; construct with NewKernel, or obtain
// domain kernels from NewGroup.
type Kernel struct {
	now     Time
	seq     uint64
	dom     int32
	rng     *rand.Rand
	metrics *metrics.Registry
	tracer  *otrace.Tracer
	sc      *sched // partition scheduler
	g       *Group
	part    int // partition index within the group
	// tail is this domain's last push into its own partition's queue.
	tail chainTail
	// follow is the record linked behind the event that last ran on this
	// domain, at generation followGen. If it is the next to run here it
	// is not counted in Processed: it fires right behind its
	// predecessor, and together they took one heap entry. A domain's run
	// order does not depend on the partition layout or on Run versus
	// Step, so neither does the count.
	follow    *event
	followGen uint64
}

// NewKernel returns a standalone kernel — the only domain of a
// one-partition group — whose clock reads zero and whose random source
// is seeded with seed, so identical schedules replay identically.
func NewKernel(seed int64) *Kernel {
	// The lookahead only spaces cross-domain hops; one domain has none.
	return NewGroup(seed, 1, 1, Nanosecond).Root()
}

// Now returns the current simulated time of this kernel's domain.
func (k *Kernel) Now() Time { return k.now }

// Domain returns the kernel's scheduling-domain index (0 for a
// standalone kernel and for the fabric domain of a Group).
func (k *Kernel) Domain() int { return int(k.dom) }

// SetMetrics attaches a metrics registry. Components built on this
// kernel resolve their instrument handles from it at construction, so
// attach the registry before wiring up devices. A nil registry (the
// default) disables collection entirely.
func (k *Kernel) SetMetrics(r *metrics.Registry) { k.metrics = r }

// Metrics returns the attached registry, or nil when disabled. The nil
// registry is safe to use: it hands out nil no-op handles.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// SetTracer attaches the causal operation tracer. Like SetMetrics,
// attach it before wiring up devices: components register their trace
// components at construction. A nil tracer (the default) disables
// tracing; every otrace method is a no-op on it.
func (k *Kernel) SetTracer(t *otrace.Tracer) { k.tracer = t }

// Tracer returns the attached operation tracer, or nil when disabled.
func (k *Kernel) Tracer() *otrace.Tracer { return k.tracer }

// Rand returns this domain's deterministic random source. In a Group
// every domain kernel carries its own stream, derived from the root
// seed and the domain index, so draws on one domain never perturb
// another and the sequence seen by a domain is independent of how many
// partitions the group runs on.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Buffers returns the frame buffer pool of this kernel's partition. All
// domains packed into one partition share it — the partition's worker
// is its only toucher — so a frame released by the domain that consumed
// it is the next frame its sender obtains. A frame that crosses
// partitions is released into the receiving partition's pool (any pool
// accepts any class-sized slice, and Get zeroes, so migration is
// harmless; the per-class cap bounds what a one-way flow can pile up).
// Use it like the kernel itself: from an event running on this kernel,
// or while the simulation is quiesced.
func (k *Kernel) Buffers() *Buffers { return &k.sc.bufs }

// Processed reports how many events have executed so far, across all
// partitions; see Group.Processed for the memory-ordering contract.
func (k *Kernel) Processed() uint64 { return k.g.Processed() }

// Pending reports how many events are scheduled and not yet canceled,
// across all partitions. It is O(partitions): each scheduler maintains
// a live counter across schedule, cancel and execution. See
// Group.Pending for the memory-ordering contract.
func (k *Kernel) Pending() int { return k.g.Pending() }

// queueLen reports how many event records (live or canceled) are
// resident in the queue; the excess over Pending is canceled residue
// awaiting compaction. Exposed for tests.
func (k *Kernel) queueLen() int { return k.sc.resident() }

// Schedule runs fn after delay d. A negative delay is treated as zero.
// The returned Timer may be used to cancel the call before it fires.
func (k *Kernel) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// ScheduleArg is Schedule for a callback taking one argument. It exists
// so hot paths can pass a persistent function plus a per-call argument
// instead of allocating a closure on every schedule.
func (k *Kernel) ScheduleArg(d Time, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return k.AtArg(k.now+d, fn, arg)
}

// At runs fn at absolute time t. Scheduling in the past runs at the
// current instant (after already-queued events for this instant).
//
// At must be called either from an event running on this domain or
// while the group is quiesced (no Run in progress); an event of another
// domain reaches this one through SendTo / Call, and panics if it
// schedules here directly.
func (k *Kernel) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	ev := k.push(t, laneEvent, k)
	ev.fn = fn
	return Timer{sc: k.sc, ev: ev, gen: ev.gen}
}

// AtArg is At for a callback taking one argument; see ScheduleArg.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: AtArg called with nil function")
	}
	ev := k.push(t, laneEvent, k)
	ev.afn = fn
	ev.arg = arg
	return Timer{sc: k.sc, ev: ev, gen: ev.gen}
}

// push queues a blank event under this domain's next key in lane, to run
// on dst (which shares this kernel's partition) at time t, and returns
// the record for the caller to attach its callback to. A key adjacent to
// the domain's previous push links behind it (see chainTail).
func (k *Kernel) push(t Time, lane int32, dst *Kernel) *event {
	k.checkDomain()
	if t < k.now {
		t = k.now
	}
	sc := k.sc
	ev := sc.free.Get()
	ev.k = dst
	if k.tail.admits(t, lane, k.seq, dst) {
		k.tail.ev.next = ev
	} else {
		sc.events.push(qent{at: t, seq: k.seq, dl: domLane(k.dom, lane), ev: ev})
	}
	k.tail = chainTail{ev: ev, gen: ev.gen, at: t, seq: k.seq, lane: lane}
	k.seq++
	sc.live++
	return ev
}

// checkDomain panics when an event of another domain is executing on
// this kernel's partition: the caller is about to stamp an event with
// this domain's clock and sequence counter, which only this domain's
// events (or a quiesced driver) may advance. Such a call would read a
// clock up to a lookahead stale and, on more partitions, race.
func (k *Kernel) checkDomain() {
	if cur := k.sc.cur; cur != k.dom && cur != quiesced {
		k.wrongDomain(cur)
	}
}

// wrongDomain stays out of line so that checkDomain inlines.
//
//go:noinline
func (k *Kernel) wrongDomain(cur int32) {
	panic(fmt.Sprintf("sim: domain %d scheduled from an event running on domain %d (use SendTo/Call, or schedule on the running domain)", k.dom, cur))
}

// SendTo schedules a frame delivery on a domain's kernel at absolute
// time at. The event keeps this domain's (time, domain, lane, sequence)
// key, so its position in the global order is fixed here, at schedule
// time — delivery order at the destination is a deterministic function
// of that key, never of goroutine scheduling.
//
// A delivery to another domain is keyed in lane 0, like any event. One
// addressed to this kernel itself is keyed in the arrival lane: it runs
// after every lane-0 event this domain has for that instant, however
// late that event was pushed, and before any event of a higher domain —
// where a delivery from another domain's sender also sorts, relative to
// this domain's events. So a device that handles a frame at delivery
// handles it at the same place in the order whichever domain sent it.
// Same-domain sends never cross partitions, so the mailbox path below
// only carries lane-0 keys.
//
// When the destination lives in another partition, at must be at least
// the group's lookahead past this domain's clock (the conservative
// window contract); link propagation delay guarantees that for every
// simnet send. Same-partition destinations take the direct queue push
// with the identical key, so the global event order — and therefore
// the simulation — does not depend on the partition layout.
func (k *Kernel) SendTo(dst *Kernel, at Time, fn func(any, []byte), arg any, buf []byte) {
	if fn == nil {
		panic("sim: SendTo called with nil function")
	}
	if at < k.now {
		at = k.now
	}
	if dst.sc == k.sc {
		lane := laneEvent
		if dst == k {
			lane = laneArrival
		}
		ev := k.push(at, lane, dst)
		ev.bfn = fn
		ev.arg = arg
		ev.buf = buf
		return
	}
	g := k.g
	if g != dst.g {
		panic("sim: SendTo across unrelated kernels")
	}
	if at < k.now+g.lookahead {
		panic("sim: SendTo inside the lookahead horizon")
	}
	k.checkDomain()
	box := &k.sc.out[dst.part]
	*box = append(*box, xev{at: at, dom: k.dom, seq: k.seq, k: dst, bfn: fn, arg: arg, buf: buf})
	k.seq++
}

// Call runs fn on another domain: synchronously when dst is the calling
// kernel, otherwise scheduled one lookahead ahead on dst — even when
// both share a partition — so the hop's latency, and with it the event
// history, is identical at every partition count.
func (k *Kernel) Call(dst *Kernel, fn func()) {
	if k == dst {
		fn()
		return
	}
	if k.g != dst.g {
		panic("sim: Call across unrelated kernels")
	}
	at := k.now + k.g.lookahead
	if dst.sc == k.sc {
		k.push(at, laneEvent, dst).fn = fn
		return
	}
	k.checkDomain()
	box := &k.sc.out[dst.part]
	*box = append(*box, xev{at: at, dom: k.dom, seq: k.seq, k: dst, fn: fn})
	k.seq++
}

// Step executes the single globally next event of the group, whatever
// its domain; it reports whether one ran.
func (k *Kernel) Step() bool { return k.g.Step() }

// Run executes the group's events until every queue drains or Stop is
// called.
func (k *Kernel) Run() { k.g.Run() }

// RunUntil executes every event scheduled at or before t and then sets
// every domain clock to t, unless Stop was called.
func (k *Kernel) RunUntil(t Time) { k.g.RunUntil(t) }

// RunFor advances the simulation by duration d. See RunUntil.
func (k *Kernel) RunFor(d Time) { k.g.RunFor(d) }

// Stop makes the current Run/RunUntil return; see Group.Stop.
func (k *Kernel) Stop() { k.g.Stop() }

// Timer is a handle to a scheduled event. It is a plain value (copying
// it is fine); the zero Timer is inert: Stop reports false and Active
// reports false. Handles do not pin the event record — once the event
// fires or is compacted away the record is recycled and the handle
// becomes inert automatically. A Timer must be used from the partition
// that scheduled it.
type Timer struct {
	sc  *sched
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing (false if it already ran or was already stopped).
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.canceled {
		return false
	}
	t.ev.canceled = true
	t.sc.live--
	t.sc.ncanceled++
	if t.sc.ncanceled > t.sc.live && t.sc.live+t.sc.ncanceled >= compactThreshold {
		t.sc.compact()
	}
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled
}

// Ticker invokes a callback at a fixed period until stopped. The tick
// callback is bound once at construction, so steady ticking does not
// allocate.
type Ticker struct {
	k      *Kernel
	period Time
	fn     func()
	tickFn func()
	timer  Timer
	stop   bool
}

// NewTicker schedules fn every period, first firing one period from now.
func (k *Kernel) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	t.tickFn = t.tick
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.k.Schedule(t.period, t.tickFn)
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.arm()
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stop = true
	t.timer.Stop()
}
