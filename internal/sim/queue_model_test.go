package sim

// Model-based coverage for the event queue: byte programs drive a
// 3-domain Group — scheduling, stopping timers, stepping, running in
// windows, forcing compaction, and events that send across domains,
// schedule successors (timers, or frames to their own domain), stop
// timers or push bursts of same-instant events when they fire — and a plain reference replays
// the same program over a sorted list of (at, dom, lane, seq) keys,
// where a send to the sending domain itself is keyed in lane 1 and
// everything else in lane 0. The two must fire the same events at the
// same instants with the same Timer.Stop outcomes, at any partition
// count, and count the same Processed. The reference derives that count
// from its own keys: an event is not counted when it was pushed right
// behind its domain's previous push (same instant, same lane, next seq,
// same run domain, that push still pending) and is the next event to
// run on their run domain after it. TestEventQueueModel feeds seeded
// random programs; FuzzEventQueue lets the fuzzer write them.

import (
	"math/rand"
	"slices"
	"testing"
)

const (
	modelDomains   = 3
	modelLookahead = 300 * Nanosecond
	modelTick      = 25 * Nanosecond // delays are multiples, so timestamps collide often
)

// What an event does when it fires, fixed when it is scheduled.
const (
	actNone = iota
	actSend // SendTo another domain, one lookahead or more ahead
	// actLocal schedules a successor on the run domain: a cancelable
	// timer, or with self a SendTo to the domain itself, a frame in the
	// arrival lane.
	actLocal
	actStop // Stop an earlier timer of the run domain
	// actBurst pushes n children for one instant to one domain: timers
	// (or, with self, SendTos to itself) on the run domain, SendTos one
	// lookahead or more ahead elsewhere. With echo, each child schedules
	// a successor for its own instant.
	actBurst
	actKinds
)

// The reference's lanes, by the rule of Kernel.SendTo.
const (
	modelLaneEvent   = 0
	modelLaneArrival = 1
)

type modelAction struct {
	kind   int
	dst    int  // actSend, actBurst: destination domain
	delay  Time // actSend, actLocal, actBurst: child delay
	target int  // actStop: event id
	n      int  // actBurst: children
	echo   bool // actBurst: children are actLocal with no delay
	self   bool // actLocal, actBurst to the run domain: children are SendTos to it
}

// children lists the ids of the events that event id's action makes: a
// child's id follows its parent's, and an echoing burst child's own child
// follows it.
func (a modelAction) children(id int) []int {
	switch a.kind {
	case actSend, actLocal:
		return []int{id + 1}
	case actBurst:
		ids := make([]int, a.n)
		for i := range ids {
			ids[i] = id + 1 + i
			if a.echo {
				ids[i] = id + 1 + 2*i
			}
		}
		return ids
	}
	return nil
}

// firing is one executed event as its run domain saw it.
type firing struct {
	id      int
	at      Time
	stopped bool // actStop: what Timer.Stop reported
}

type modelEvent struct {
	at     Time
	dom    int32
	lane   int32
	seq    uint64
	id     int
	run    int  // domain whose clock the event advances
	behind int  // id of the push it was linked behind, or -1
	queued bool // scheduled, and neither fired nor canceled
}

// less is the reference's key order: instant, then scheduling domain,
// then lane, then the domain's sequence number.
func (e *modelEvent) less(o *modelEvent) bool {
	switch {
	case e.at != o.at:
		return e.at < o.at
	case e.dom != o.dom:
		return e.dom < o.dom
	case e.lane != o.lane:
		return e.lane < o.lane
	}
	return e.seq < o.seq
}

// queueModel is the reference: no heap, no pooling, no partitions. It
// keeps every event by id and the queued ones' ids sorted by key, so a
// lookup is an index and a cancel a binary search.
type queueModel struct {
	now       [modelDomains]Time
	seq       [modelDomains]uint64
	last      [modelDomains]int // id of each domain's last scheduled event, -1 before the first
	events    []modelEvent      // by id, grown by the harness as it defines ids
	pending   []int             // ids of the queued events, in key order
	fired     [modelDomains][]firing
	order     []int             // ids in global firing order
	lastFired [modelDomains]int // id of the event each domain ran last, -1 before the first
	processed uint64
}

func newQueueModel() queueModel {
	var m queueModel
	for d := range m.last {
		m.last[d], m.lastFired[d] = -1, -1
	}
	return m
}

// search returns the position of e's key in pending: where it is, or
// where it goes.
func (m *queueModel) search(e *modelEvent) int {
	i, _ := slices.BinarySearchFunc(m.pending, e, func(id int, e *modelEvent) int {
		switch p := &m.events[id]; {
		case p.less(e):
			return -1
		case e.less(p):
			return 1
		}
		return 0
	})
	return i
}

func (m *queueModel) schedule(d int, delay Time, id, run, lane int) {
	e := &m.events[id]
	*e = modelEvent{
		at: m.now[d] + delay, dom: int32(d), lane: int32(lane), seq: m.seq[d],
		id: id, run: run, behind: -1, queued: true,
	}
	if l := m.last[d]; l >= 0 {
		if p := &m.events[l]; p.at == e.at && p.lane == e.lane && p.seq+1 == e.seq && p.run == run && p.queued {
			e.behind = p.id
		}
	}
	m.pending = slices.Insert(m.pending, m.search(e), id)
	m.last[d] = id
	m.seq[d]++
}

// cancel removes event id if it is still queued and reports whether it was.
func (m *queueModel) cancel(id int) bool {
	e := &m.events[id]
	if !e.queued {
		return false
	}
	e.queued = false
	i := m.search(e)
	m.pending = slices.Delete(m.pending, i, i+1)
	return true
}

func (m *queueModel) isPending(id int) bool { return m.events[id].queued }

// min returns the id of the smallest queued key, or -1.
func (m *queueModel) min() int {
	if len(m.pending) == 0 {
		return -1
	}
	return m.pending[0]
}

// fire executes queued event id, which must be the minimum, with the
// action table the harness built.
func (m *queueModel) fire(id int, h *queueHarness) {
	e := &m.events[id]
	e.queued = false
	m.pending = m.pending[1:]
	m.now[e.run] = e.at
	if e.behind < 0 || e.behind != m.lastFired[e.run] {
		m.processed++
	}
	m.lastFired[e.run] = e.id
	f := firing{id: e.id, at: e.at}
	switch a := h.acts[e.id]; a.kind {
	case actSend:
		m.schedule(e.run, modelLookahead+a.delay, e.id+1, a.dst, modelLaneEvent)
	case actLocal:
		if a.self {
			m.schedule(e.run, a.delay, e.id+1, e.run, modelLaneArrival)
		} else {
			m.schedule(e.run, a.delay, e.id+1, e.run, modelLaneEvent)
		}
	case actStop:
		f.stopped = m.cancel(a.target)
	case actBurst:
		for _, c := range a.children(e.id) {
			switch {
			case a.dst != e.run:
				m.schedule(e.run, modelLookahead+a.delay, c, a.dst, modelLaneEvent)
			case a.self:
				m.schedule(e.run, a.delay, c, e.run, modelLaneArrival)
			default:
				m.schedule(e.run, a.delay, c, e.run, modelLaneEvent)
			}
		}
	}
	m.fired[e.run] = append(m.fired[e.run], f)
	m.order = append(m.order, e.id)
}

func (m *queueModel) runUntil(t Time, h *queueHarness) {
	for {
		id := m.min()
		if id < 0 || m.events[id].at > t {
			break
		}
		m.fire(id, h)
	}
	for d := range m.now {
		if m.now[d] < t {
			m.now[d] = t
		}
	}
}

// queueHarness binds one Group to one model. Everything events touch
// while a parallel run is in flight is either per run domain (got) or a
// slot written by one domain only (timers), and the tables by id grow
// only while the group is quiesced, when the program defines an event,
// so the harness itself is race-free at any partition count.
type queueHarness struct {
	g      *Group
	m      queueModel
	acts   []modelAction // by event id; see modelAction.children
	owner  []int         // by event id: domain holding its Timer, -1 for sends
	run    []int         // by event id: domain it executes on
	timers []Timer       // by event id
	got    [modelDomains][]firing
	order  []int // ids in global firing order; kept only on one partition
	fireFn func(any)
	recvFn func(any, []byte)
}

func newQueueHarness(partitions int) *queueHarness {
	h := &queueHarness{
		g: NewGroup(1, modelDomains, partitions, modelLookahead),
		m: newQueueModel(),
	}
	h.fireFn = func(a any) { h.fire(a.(int)) }
	h.recvFn = func(a any, _ []byte) { h.fire(a.(int)) }
	return h
}

// fire is the body of every real event.
func (h *queueHarness) fire(id int) {
	run := h.run[id]
	k := h.g.Kernel(run)
	f := firing{id: id, at: k.Now()}
	switch a := h.acts[id]; a.kind {
	case actSend:
		k.SendTo(h.g.Kernel(a.dst), k.Now()+modelLookahead+a.delay, h.recvFn, id+1, nil)
	case actLocal:
		if a.self {
			k.SendTo(k, k.Now()+a.delay, h.recvFn, id+1, nil)
		} else {
			h.timers[id+1] = k.ScheduleArg(a.delay, h.fireFn, id+1)
		}
	case actStop:
		f.stopped = h.timers[a.target].Stop()
	case actBurst:
		for _, c := range a.children(id) {
			switch {
			case a.dst != run:
				k.SendTo(h.g.Kernel(a.dst), k.Now()+modelLookahead+a.delay, h.recvFn, c, nil)
			case a.self:
				k.SendTo(k, k.Now()+a.delay, h.recvFn, c, nil)
			default:
				h.timers[c] = k.ScheduleArg(a.delay, h.fireFn, c)
			}
		}
	}
	h.got[run] = append(h.got[run], f)
	if h.g.Partitions() == 1 {
		h.order = append(h.order, id)
	}
}

// add registers an externally scheduled event on domain d, and the
// events its action makes, and returns its id.
func (h *queueHarness) add(d int, a modelAction) int {
	id := len(h.acts)
	if a.kind == actStop && (a.target >= id || h.owner[a.target] != d) {
		// A Timer may only be used from the partition that scheduled it.
		a.kind = actNone
	}
	h.define(id, a, d, d)
	return id
}

// define appends event id, executing on run with its Timer (if any) held
// by owner, and every event its action makes.
func (h *queueHarness) define(id int, a modelAction, owner, run int) {
	h.acts = append(h.acts, a)
	h.owner = append(h.owner, owner)
	h.run = append(h.run, run)
	h.timers = append(h.timers, Timer{})
	h.m.events = append(h.m.events, modelEvent{})
	switch a.kind {
	case actSend:
		h.define(id+1, modelAction{}, -1, a.dst)
	case actLocal:
		owner := run
		if a.self {
			owner = -1
		}
		h.define(id+1, modelAction{}, owner, run)
	case actBurst:
		child := modelAction{}
		if a.echo {
			child.kind = actLocal
		}
		owner := -1
		if a.dst == run && !a.self {
			owner = run
		}
		for _, c := range a.children(id) {
			h.define(c, child, owner, a.dst)
		}
	}
}

// runQueueProgram interprets prog against a fresh Group and the model,
// then drains both and compares everything observable.
func runQueueProgram(t *testing.T, partitions int, prog []byte) {
	t.Helper()
	h := newQueueHarness(partitions)
	g, m := h.g, &h.m
	pc := 0
	next := func() int {
		if pc >= len(prog) {
			return 0
		}
		pc++
		return int(prog[pc-1])
	}
	horizon := Time(0)
	for pc < len(prog) {
		switch next() % 8 {
		case 0, 1, 2: // schedule, with an action for when it fires
			d := next() % modelDomains
			delay := Time(next()%64) * modelTick
			b := next()
			a := modelAction{
				kind:  b % actKinds,
				dst:   (d + 1 + b/actKinds%2) % modelDomains,
				delay: Time(next()%32) * modelTick,
			}
			// A self-send takes a bit the decoding left unused, so
			// programs written before it existed keep their meaning.
			switch a.kind {
			case actLocal:
				a.self = b/actKinds%2 == 1
			case actBurst:
				// Any domain, the scheduling one included: same-domain,
				// cross-domain and, on several partitions, cross-partition
				// chains.
				a.dst = (d + b/actKinds%3) % modelDomains
				a.n = 2 + b/(3*actKinds)%3
				a.echo = b/(9*actKinds)%2 == 1
				a.self = a.dst == d && b/(18*actKinds)%2 == 1
			}
			if n := len(h.acts); n > 0 {
				a.target = next() % n
			}
			id := h.add(d, a)
			h.timers[id] = g.Kernel(d).ScheduleArg(delay, h.fireFn, id)
			m.schedule(d, delay, id, d, modelLaneEvent)
		case 3: // Timer.Stop from outside, while quiesced
			if len(h.acts) == 0 {
				break
			}
			id := next() % len(h.acts)
			want := m.isPending(id) && h.owner[id] >= 0
			if got := h.timers[id].Active(); got != want {
				t.Fatalf("pc %d: timer %d Active() = %v, model says %v", pc, id, got, want)
			}
			if want {
				m.cancel(id)
			}
			if got := h.timers[id].Stop(); got != want {
				t.Fatalf("pc %d: timer %d Stop() = %v, model says %v", pc, id, got, want)
			}
		case 4: // single steps: the global minimum, one event at a time
			for n := 1 + next()%8; n > 0; n-- {
				id := m.min()
				if id >= 0 {
					m.fire(id, h)
				}
				if got := g.Step(); got != (id >= 0) {
					t.Fatalf("pc %d: Step() = %v, model had an event: %v", pc, got, id >= 0)
				}
			}
		case 5: // forced compaction of every partition
			for _, sc := range g.parts {
				sc.compact()
				if sc.ncanceled != 0 || sc.resident() != sc.live {
					t.Fatalf("pc %d: after compact: %d resident, %d live, %d canceled", pc, sc.resident(), sc.live, sc.ncanceled)
				}
			}
		case 6: // a bounded run: windows and barriers when partitioned
			horizon += Time(next()) * 40 * Nanosecond
			g.RunUntil(horizon)
			m.runUntil(horizon, h)
		case 7: // arm-and-stop churn, enough of it to trip auto-compaction
			d := next() % modelDomains
			k := g.Kernel(d)
			for n := next() % 128; n > 0; n-- {
				if !k.Schedule(Second, func() {}).Stop() {
					t.Fatalf("pc %d: Stop() = false on a timer armed a second ahead", pc)
				}
				m.seq[d]++
			}
		}
		if got, want := g.Pending(), len(m.pending); got != want {
			t.Fatalf("pc %d: Pending() = %d, model holds %d", pc, got, want)
		}
		if got, want := g.Processed(), m.processed; got != want {
			t.Fatalf("pc %d: Processed() = %d, model counts %d", pc, got, want)
		}
	}
	g.Run()
	m.runUntil(maxTime, h)

	if g.Pending() != 0 {
		t.Fatalf("Pending() = %d after the drain", g.Pending())
	}
	if g.Processed() != m.processed {
		t.Fatalf("Processed() = %d, model counts %d", g.Processed(), m.processed)
	}
	for d := range h.got {
		got, want := h.got[d], m.fired[d]
		if len(got) != len(want) {
			t.Fatalf("domain %d fired %d events, model %d", d, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("domain %d firing %d: got %+v, model %+v", d, i, got[i], want[i])
			}
		}
	}
	if partitions == 1 {
		for i, id := range m.order {
			if h.order[i] != id {
				t.Fatalf("global firing %d: event %d, model %d", i, h.order[i], id)
			}
		}
	}
}

func TestEventQueueModel(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		prog := make([]byte, 200+rng.Intn(1200))
		rng.Read(prog)
		for _, partitions := range []int{1, 2, 3} {
			runQueueProgram(t, partitions, prog)
		}
	}
}

// FuzzEventQueue runs its seed corpus (the f.Add programs and
// testdata/fuzz/FuzzEventQueue) as a plain test; `go test -fuzz
// FuzzEventQueue ./internal/sim` searches for more.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	// Same-instant schedules on every domain, stepped one at a time.
	f.Add([]byte{0, 0, 4, 0, 0, 0, 0, 1, 4, 0, 0, 0, 0, 2, 4, 0, 0, 0, 4, 7})
	// A send whose child lands exactly one lookahead out, run in windows.
	f.Add([]byte{0, 1, 0, 1, 0, 0, 6, 20, 6, 20})
	// Churn past the compaction threshold under a pending timer, then stop it.
	f.Add([]byte{0, 2, 63, 0, 0, 0, 7, 2, 127, 7, 2, 127, 3, 0, 5, 6, 255})
	// Bursts: a chain keyed on domain 2 running on domain 0 whose members
	// each push a same-instant event there, a same-domain chain that grows
	// as it fires, and a chain from domain 1 to domain 2; stepped, then run
	// in windows.
	f.Add([]byte{0, 2, 0, 84, 0, 0, 1, 0, 79, 0, 0, 0, 1, 0, 24, 0, 0, 4, 7, 6, 255, 6, 255})
	// Same-domain sends at one instant on domain 0: one frame to itself,
	// a timer armed after it, domain 1's event, and four frames to itself
	// each arming a timer for their instant; stepped, then run in windows.
	f.Add([]byte{0, 0, 0, 7, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 169, 0, 0, 4, 7, 6, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("programs longer than 4 KiB add length, not coverage")
		}
		for partitions := 1; partitions <= modelDomains; partitions++ {
			runQueueProgram(t, partitions, prog)
		}
	})
}
