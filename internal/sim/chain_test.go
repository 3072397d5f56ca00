package sim

import (
	"fmt"
	"testing"
)

// Tests of the kernel's chains: a push whose key is adjacent to its
// domain's previous push (same instant, next seq, same run kernel, that
// push still queued) is linked behind it and takes no heap entry.

// entries reports the heap entries and the records a partition holds.
func entries(sc *sched) (slots, records int) { return len(sc.events), sc.resident() }

// TestChainYieldsToSameInstantPush: a chain keyed on domain 1 runs on
// domain 0, and its first member pushes an event on domain 0 for the
// same instant. That event's key sorts before the second member's, so it
// must fire between them, and the second member, no longer right behind
// its predecessor, counts in Processed.
func TestChainYieldsToSameInstantPush(t *testing.T) {
	for _, parts := range []int{1, 2} {
		g := NewGroup(1, 2, parts, 10*Nanosecond)
		k0, k1 := g.Kernel(0), g.Kernel(1)
		var got []string
		member := func(a any, _ []byte) {
			got = append(got, a.(string))
			if a == "m1" {
				k0.Schedule(0, func() { got = append(got, "echo") })
			}
		}
		k1.Schedule(0, func() {
			for _, m := range []string{"m1", "m2", "m3"} {
				k1.SendTo(k0, k1.Now()+g.Lookahead(), member, m, nil)
			}
		})
		g.Step()
		if slots, records := entries(g.parts[0]); slots != 1 || records != 3 {
			t.Fatalf("partitions=%d: the chain takes %d entries for %d records, want 1 for 3", parts, slots, records)
		}
		g.Run()
		if s, want := fmt.Sprint(got), "[m1 echo m2 m3]"; s != want {
			t.Fatalf("partitions=%d: fired %s, want %s", parts, s, want)
		}
		// The scheduling event, m1, echo and m2; m3 fires right behind m2.
		if n := g.Processed(); n != 4 {
			t.Fatalf("partitions=%d: Processed = %d, want 4", parts, n)
		}
	}
}

// TestChainCancel cancels the head of one chain, a middle member of a
// second and the tail of a third. Pending, live and ncanceled count
// records, not heap entries; the survivors fire in key order, with or
// without a forced compaction first, and compaction keeps every one.
func TestChainCancel(t *testing.T) {
	for _, compact := range []bool{false, true} {
		k := NewKernel(1)
		sc := k.sc
		var got []int
		timers := make([]Timer, 12)
		for i := range timers {
			i := i
			timers[i] = k.At(Time(10*(1+i/4)), func() { got = append(got, i) })
		}
		if slots, records := entries(sc); slots != 3 || records != 12 || k.Pending() != 12 {
			t.Fatalf("%d entries, %d records, %d pending; want 3, 12, 12", slots, records, k.Pending())
		}
		for _, i := range []int{0, 5, 11} {
			if !timers[i].Stop() {
				t.Fatalf("Stop() = false on queued member %d", i)
			}
		}
		if k.Pending() != 9 || sc.live != 9 || sc.ncanceled != 3 || k.queueLen() != 12 {
			t.Fatalf("after 3 stops: Pending %d, live %d, ncanceled %d, resident %d; want 9, 9, 3, 12",
				k.Pending(), sc.live, sc.ncanceled, k.queueLen())
		}
		if compact {
			sc.compact()
			// The middle cut splits the second chain into two entries.
			if slots, records := entries(sc); slots != 4 || records != 9 || sc.live != 9 || sc.ncanceled != 0 {
				t.Fatalf("after compact: %d entries, %d records, live %d, ncanceled %d; want 4, 9, 9, 0",
					slots, records, sc.live, sc.ncanceled)
			}
		}
		k.Run()
		if s, want := fmt.Sprint(got), "[1 2 3 4 6 7 8 9 10]"; s != want {
			t.Fatalf("compact=%v: fired %s, want %s", compact, s, want)
		}
		// Counted: 1 (its predecessor was canceled), 4, 6 (likewise) and 8.
		if n := k.Processed(); n != 4 {
			t.Fatalf("compact=%v: Processed = %d, want 4", compact, n)
		}
		if k.Pending() != 0 || sc.ncanceled != 0 || len(sc.events) != 0 {
			t.Fatalf("compact=%v: drained queue holds %d pending, %d canceled, %d entries", compact, k.Pending(), sc.ncanceled, len(sc.events))
		}
	}
}

// TestChainSuccessorRecycled: a member stops its successor, compaction
// recycles the successor's record, and the member's next schedule takes
// that record. The new event is not the one that was linked, so it
// counts in Processed even though it is the next to run.
func TestChainSuccessorRecycled(t *testing.T) {
	k := NewKernel(1)
	var ran []string
	var second Timer
	k.At(10, func() {
		ran = append(ran, "first")
		second.Stop()
		k.sc.compact()
		k.Schedule(0, func() { ran = append(ran, "fresh") })
	})
	second = k.At(10, func() { ran = append(ran, "second") })
	k.Run()
	if s := fmt.Sprint(ran); s != "[first fresh]" {
		t.Fatalf("fired %s, want [first fresh]", s)
	}
	if n := k.Processed(); n != 2 {
		t.Fatalf("Processed = %d, want 2", n)
	}
}

// chainSchedule arms a schedule of chains on a three-domain group: a
// same-domain chain with a canceled member, a cross-domain chain whose
// first member pushes an event that sorts before the second, and a
// chain whose members extend it for their own instant. It returns the
// firing log.
func chainSchedule(g *Group) *[]string {
	log := new([]string)
	k0, k1, k2 := g.Kernel(0), g.Kernel(1), g.Kernel(2)
	note := func(k *Kernel, s string) { *log = append(*log, fmt.Sprintf("%s@%d/%d", s, k.Now(), k.Domain())) }
	var extend func()
	n := 0
	extend = func() {
		note(k2, "x")
		if n++; n < 4 {
			k2.Schedule(0, extend)
		}
	}
	for i := 0; i < 3; i++ {
		i := i
		tm := k2.At(40, func() { note(k2, fmt.Sprint("local", i)) })
		if i == 1 {
			tm.Stop()
		}
	}
	k2.At(50, func() { k2.Schedule(0, extend); k2.Schedule(0, extend) })
	recv := func(a any, _ []byte) {
		note(k0, a.(string))
		if a == "r0" {
			k0.Schedule(0, func() { note(k0, "echo") })
		}
	}
	k1.At(100, func() {
		for i := 0; i < 3; i++ {
			k1.SendTo(k0, k1.Now()+g.Lookahead(), recv, fmt.Sprint("r", i), nil)
		}
	})
	return log
}

// TestChainRunMatchesStep drives one schedule of chains by Run and again
// by Step, at one and at three partitions: the firings and Processed
// must be identical.
func TestChainRunMatchesStep(t *testing.T) {
	var want string
	var wantN uint64
	for _, parts := range []int{1, 3} {
		for _, step := range []bool{false, true} {
			g := NewGroup(1, 3, parts, 10*Nanosecond)
			log := chainSchedule(g)
			if step {
				for g.Step() {
				}
			} else {
				g.Run()
			}
			got := fmt.Sprint(*log)
			if want == "" {
				want, wantN = got, g.Processed()
				continue
			}
			if got != want || g.Processed() != wantN {
				t.Fatalf("partitions=%d step=%v: fired %s, Processed %d; Run at one partition fired %s, Processed %d",
					parts, step, got, g.Processed(), want, wantN)
			}
		}
	}
}

// TestChainStopMidway: Stop from a chain member ends the Run after it;
// the rest of the chain stays queued and fires on the next Run, still
// counted as riding the same entry.
func TestChainStopMidway(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		k.At(10, func() {
			got = append(got, i)
			if i == 1 {
				k.Stop()
			}
		})
	}
	k.Run()
	if s := fmt.Sprint(got); s != "[0 1]" || k.Pending() != 2 {
		t.Fatalf("Run stopped after %s with %d pending, want [0 1] and 2", s, k.Pending())
	}
	k.Run()
	if s := fmt.Sprint(got); s != "[0 1 2 3]" || k.Pending() != 0 {
		t.Fatalf("resumed Run fired %s, %d pending; want [0 1 2 3], 0", s, k.Pending())
	}
	if n := k.Processed(); n != 1 {
		t.Fatalf("Processed = %d, want 1", n)
	}
}
