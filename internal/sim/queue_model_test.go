package sim

// Model-based coverage for the event queue: byte programs drive a
// 3-domain Group — scheduling, stopping timers, stepping, running in
// windows, forcing compaction, and events that send across domains,
// schedule successors, stop timers or push bursts of same-instant
// events when they fire — and a naive reference replays the same
// program over an unsorted list, popping the minimum (at, dom, seq) key
// by linear scan. The two must fire the same events at the same instants
// with the same Timer.Stop outcomes, at any partition count, and count
// the same Processed. The reference derives that count from its own
// keys: an event is not counted when it was pushed right behind its
// domain's previous push (same instant, next seq, same run domain, that
// push still pending) and is the next event to run on their run domain
// after it. TestEventQueueModel feeds seeded random programs;
// FuzzEventQueue lets the fuzzer write them.

import (
	"math/rand"
	"testing"
)

const (
	modelDomains   = 3
	modelLookahead = 300 * Nanosecond
	modelTick      = 25 * Nanosecond // delays are multiples, so timestamps collide often
)

// What an event does when it fires, fixed when it is scheduled.
const (
	actNone  = iota
	actSend  // SendTo another domain, one lookahead or more ahead
	actLocal // Schedule a cancelable successor on the run domain
	actStop  // Stop an earlier timer of the run domain
	// actBurst pushes n children for one instant to one domain: timers
	// on the run domain, SendTos one lookahead or more ahead elsewhere.
	// With echo, each child schedules a successor for its own instant.
	actBurst
	actKinds
)

type modelAction struct {
	kind   int
	dst    int  // actSend, actBurst: destination domain
	delay  Time // actSend, actLocal, actBurst: child delay
	target int  // actStop: event id
	n      int  // actBurst: children
	echo   bool // actBurst: children are actLocal with no delay
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
	seq    uint64
	id     int
	run    int // domain whose clock the event advances
	behind int // id of the push it was linked behind, or -1
}

// queueModel is the reference: no heap, no pooling, no partitions.
type queueModel struct {
	now       [modelDomains]Time
	seq       [modelDomains]uint64
	last      [modelDomains]*modelEvent // each domain's last scheduled event
	pending   []modelEvent
	fired     [modelDomains][]firing
	order     []int             // ids in global firing order
	lastFired [modelDomains]int // id of the event each domain ran last, -1 before the first
	processed uint64
}

func (m *queueModel) schedule(d int, delay Time, id, run int) {
	e := modelEvent{
		at: m.now[d] + delay, dom: int32(d), seq: m.seq[d], id: id, run: run, behind: -1,
	}
	if p := m.last[d]; p != nil && p.at == e.at && p.seq+1 == e.seq && p.run == run && m.isPending(p.id) {
		e.behind = p.id
	}
	m.pending = append(m.pending, e)
	m.last[d] = &e
	m.seq[d]++
}

// cancel removes event id if it is still pending and reports whether it was.
func (m *queueModel) cancel(id int) bool {
	for i, e := range m.pending {
		if e.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (m *queueModel) isPending(id int) bool {
	for _, e := range m.pending {
		if e.id == id {
			return true
		}
	}
	return false
}

// min returns the position of the smallest (at, dom, seq) key, or -1.
func (m *queueModel) min() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 {
			best = i
			continue
		}
		b := m.pending[best]
		if e.at != b.at {
			if e.at < b.at {
				best = i
			}
		} else if e.dom != b.dom {
			if e.dom < b.dom {
				best = i
			}
		} else if e.seq < b.seq {
			best = i
		}
	}
	return best
}

// fire executes the pending event at position i with the action table
// the harness built.
func (m *queueModel) fire(i int, h *queueHarness) {
	e := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	m.now[e.run] = e.at
	if e.behind < 0 || e.behind != m.lastFired[e.run] {
		m.processed++
	}
	m.lastFired[e.run] = e.id
	f := firing{id: e.id, at: e.at}
	switch a := h.acts[e.id]; a.kind {
	case actSend:
		m.schedule(e.run, modelLookahead+a.delay, e.id+1, a.dst)
	case actLocal:
		m.schedule(e.run, a.delay, e.id+1, e.run)
	case actStop:
		f.stopped = m.cancel(a.target)
	case actBurst:
		for _, c := range a.children(e.id) {
			if a.dst == e.run {
				m.schedule(e.run, a.delay, c, e.run)
			} else {
				m.schedule(e.run, modelLookahead+a.delay, c, a.dst)
			}
		}
	}
	m.fired[e.run] = append(m.fired[e.run], f)
	m.order = append(m.order, e.id)
}

func (m *queueModel) runUntil(t Time, h *queueHarness) {
	for {
		i := m.min()
		if i < 0 || m.pending[i].at > t {
			break
		}
		m.fire(i, h)
	}
	for d := range m.now {
		if m.now[d] < t {
			m.now[d] = t
		}
	}
}

// queueHarness binds one Group to one model. Everything events touch
// while a parallel run is in flight is either per run domain (got) or a
// preallocated slot written by one domain only (timers), so the harness
// itself is race-free at any partition count.
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

func newQueueHarness(partitions, maxEvents int) *queueHarness {
	h := &queueHarness{
		g:      NewGroup(1, modelDomains, partitions, modelLookahead),
		acts:   make([]modelAction, 0, maxEvents),
		owner:  make([]int, 0, maxEvents),
		run:    make([]int, 0, maxEvents),
		timers: make([]Timer, maxEvents),
	}
	for d := range h.m.lastFired {
		h.m.lastFired[d] = -1
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
		h.timers[id+1] = k.ScheduleArg(a.delay, h.fireFn, id+1)
	case actStop:
		f.stopped = h.timers[a.target].Stop()
	case actBurst:
		for _, c := range a.children(id) {
			if a.dst == run {
				h.timers[c] = k.ScheduleArg(a.delay, h.fireFn, c)
			} else {
				k.SendTo(h.g.Kernel(a.dst), k.Now()+modelLookahead+a.delay, h.recvFn, c, nil)
			}
		}
	}
	h.got[run] = append(h.got[run], f)
	if h.g.Partitions() == 1 {
		h.order = append(h.order, id)
	}
}

// add registers an externally scheduled event on domain d, and the
// events its action makes. It reports false once the id space is full.
func (h *queueHarness) add(d int, a modelAction) (id int, ok bool) {
	id = len(h.acts)
	if id+2+2*a.n > cap(h.acts) {
		return 0, false
	}
	if a.kind == actStop && (a.target >= id || h.owner[a.target] != d) {
		// A Timer may only be used from the partition that scheduled it.
		a.kind = actNone
	}
	h.define(id, a, d, d)
	return id, true
}

// define appends event id, executing on run with its Timer (if any) held
// by owner, and every event its action makes.
func (h *queueHarness) define(id int, a modelAction, owner, run int) {
	h.acts = append(h.acts, a)
	h.owner = append(h.owner, owner)
	h.run = append(h.run, run)
	switch a.kind {
	case actSend:
		h.define(id+1, modelAction{}, -1, a.dst)
	case actLocal:
		h.define(id+1, modelAction{}, run, run)
	case actBurst:
		child := modelAction{}
		if a.echo {
			child.kind = actLocal
		}
		owner := -1
		if a.dst == run {
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
	h := newQueueHarness(partitions, 9*len(prog)+9)
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
			if a.kind == actBurst {
				// Any domain, the scheduling one included: same-domain,
				// cross-domain and, on several partitions, cross-partition
				// chains.
				a.dst = (d + b/actKinds%3) % modelDomains
				a.n = 2 + b/(3*actKinds)%3
				a.echo = b/(9*actKinds)%2 == 1
			}
			if n := len(h.acts); n > 0 {
				a.target = next() % n
			}
			id, ok := h.add(d, a)
			if !ok {
				break
			}
			h.timers[id] = g.Kernel(d).ScheduleArg(delay, h.fireFn, id)
			m.schedule(d, delay, id, d)
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
				i := m.min()
				if i >= 0 {
					m.fire(i, h)
				}
				if got := g.Step(); got != (i >= 0) {
					t.Fatalf("pc %d: Step() = %v, model had an event: %v", pc, got, i >= 0)
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
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("the model is quadratic in the program length")
		}
		for partitions := 1; partitions <= modelDomains; partitions++ {
			runQueueProgram(t, partitions, prog)
		}
	})
}
