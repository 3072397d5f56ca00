package sim

import (
	"fmt"
	"testing"
)

// pingDomains wires a synthetic workload over a group: every shard
// domain ping-pongs frames with the fabric domain through SendTo at
// lookahead distance, mixes in local timers and per-domain random
// draws, and records a history string per domain. The history is the
// determinism witness: it must be byte-identical at every partition
// count.
func pingDomains(g *Group, shards int, horizon Time) []string {
	hist := make([]string, shards+1)
	fabric := g.Root()
	var pong func(a any, buf []byte)
	var ping func(a any, buf []byte)
	pong = func(a any, buf []byte) {
		d := a.(int)
		k := g.Kernel(d)
		hist[d] += fmt.Sprintf("pong@%d r%d;", k.Now(), k.Rand().Intn(1000))
		k.Buffers().Put(buf) // frames release into the receiving partition's pool
		if k.Now() < horizon {
			b := k.Buffers().Get(64)
			k.SendTo(fabric, k.Now()+g.Lookahead(), ping, d, b)
		}
	}
	ping = func(a any, buf []byte) {
		d := a.(int)
		hist[0] += fmt.Sprintf("ping%d@%d r%d;", d, fabric.Now(), fabric.Rand().Intn(1000))
		fabric.Buffers().Put(buf)
		b := fabric.Buffers().Get(64)
		fabric.SendTo(g.Kernel(d), fabric.Now()+g.Lookahead(), pong, d, b)
	}
	for d := 1; d <= shards; d++ {
		k := g.Kernel(d)
		dd := d
		// Local timer chatter on each shard domain.
		k.NewTicker(70*Nanosecond, func() {
			hist[dd] += fmt.Sprintf("t@%d;", k.Now())
		})
		b := k.Buffers().Get(64)
		k.SendTo(fabric, k.Now()+g.Lookahead(), ping, dd, b)
	}
	return hist
}

func runGroup(t *testing.T, shards, partitions int, horizon Time, step bool) ([]string, uint64) {
	t.Helper()
	g := NewGroup(7, shards+1, partitions, 300*Nanosecond)
	hist := pingDomains(g, shards, horizon)
	if step {
		for {
			// Interleave Step with short Run spans to exercise both drivers.
			for i := 0; i < 50; i++ {
				if !g.Step() {
					break
				}
			}
			if g.Now() >= horizon {
				break
			}
			g.RunUntil(g.Now() + 500*Nanosecond)
		}
		g.RunUntil(horizon + 10*g.Lookahead())
	} else {
		g.RunUntil(horizon + 10*g.Lookahead())
	}
	return hist, g.Processed()
}

func TestGroupDeterminismAcrossPartitions(t *testing.T) {
	const shards = 4
	const horizon = 20 * Microsecond
	baseHist, baseN := runGroup(t, shards, 1, horizon, false)
	if baseN == 0 {
		t.Fatal("no events processed")
	}
	for _, parts := range []int{2, 3, 5} {
		hist, n := runGroup(t, shards, parts, horizon, false)
		if n != baseN {
			t.Fatalf("partitions=%d processed %d events, want %d", parts, n, baseN)
		}
		for d := range hist {
			if hist[d] != baseHist[d] {
				t.Fatalf("partitions=%d domain %d history diverged:\n got %q\nwant %q", parts, d, hist[d], baseHist[d])
			}
		}
	}
}

func TestGroupStepMatchesRun(t *testing.T) {
	const shards = 3
	const horizon = 5 * Microsecond
	baseHist, baseN := runGroup(t, shards, 1, horizon, false)
	for _, parts := range []int{1, 4} {
		hist, n := runGroup(t, shards, parts, horizon, true)
		if n != baseN {
			t.Fatalf("step partitions=%d processed %d events, want %d", parts, n, baseN)
		}
		for d := range hist {
			if hist[d] != baseHist[d] {
				t.Fatalf("step partitions=%d domain %d history diverged:\n got %q\nwant %q", parts, d, hist[d], baseHist[d])
			}
		}
	}
}

func TestGroupClocksAfterRun(t *testing.T) {
	g := NewGroup(1, 3, 2, 300*Nanosecond)
	g.Kernel(1).Schedule(time100(), func() {})
	g.RunUntil(50 * Microsecond)
	for d := 0; d < g.Domains(); d++ {
		if got := g.Kernel(d).Now(); got != 50*Microsecond {
			t.Fatalf("domain %d clock = %v, want 50µs", d, got)
		}
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", g.Pending())
	}
}

func time100() Time { return 100 * Nanosecond }

func TestGroupCallUniformAcrossPartitions(t *testing.T) {
	run := func(parts int) string {
		g := NewGroup(3, 4, parts, 300*Nanosecond)
		var log string
		k1, k2 := g.Kernel(1), g.Kernel(2)
		k1.Schedule(time100(), func() {
			k1.Call(k2, func() {
				log += fmt.Sprintf("call@%d;", k2.Now())
				k2.Call(k1, func() {
					log += fmt.Sprintf("back@%d;", k1.Now())
				})
			})
		})
		g.RunUntil(10 * Microsecond)
		return log
	}
	want := run(1)
	if want == "" {
		t.Fatal("no calls ran")
	}
	for _, parts := range []int{2, 3, 4} {
		if got := run(parts); got != want {
			t.Fatalf("partitions=%d call log %q, want %q", parts, got, want)
		}
	}
}

// mustPanic reports the panic message fn raised, failing if it returned.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		t.Fatal("no panic")
	}()
	return msg
}

func TestGroupCrossDomainScheduleIsLoud(t *testing.T) {
	// One partition takes the direct-push arms of SendTo/Call, three (a
	// partition per domain) the mailbox arms.
	for _, parts := range []int{1, 3} {
		g := NewGroup(1, 3, parts, 300*Nanosecond)
		k1, k2 := g.Kernel(1), g.Kernel(2)
		var ran []string
		note := func(s string) func() { return func() { ran = append(ran, s) } }

		// Quiesced: any domain may be scheduled on, before and between Runs.
		k2.Schedule(time100(), note("quiesced"))
		// From a running event, the other domain is reached by SendTo and Call.
		k1.Schedule(time100(), func() {
			k1.SendTo(k2, k1.Now()+g.Lookahead(), func(any, []byte) { ran = append(ran, "sendto") }, nil, nil)
			k1.Call(k2, note("call"))
		})
		g.RunUntil(Microsecond)
		k2.Schedule(time100(), note("between"))
		g.RunUntil(2 * Microsecond)
		if got, want := fmt.Sprint(ran), "[quiesced sendto call between]"; got != want {
			t.Fatalf("partitions=%d ran %s, want %s", parts, got, want)
		}
		if parts > 1 {
			// A worker goroutine cannot be recovered from here, and across
			// partitions the stray Schedule is the race detector's to report;
			// the panic covers the one-partition layout every run replays on.
			continue
		}
		k1.Schedule(time100(), func() { k2.Schedule(0, func() {}) })
		msg := mustPanic(t, func() { g.RunUntil(3 * Microsecond) })
		if want := "sim: domain 2 scheduled from an event running on domain 1"; len(msg) < len(want) || msg[:len(want)] != want {
			t.Fatalf("panic %q, want prefix %q", msg, want)
		}
	}
}

// TestGroupQuiescedSendKeyOrder: a frame sent to another partition while
// the group is quiesced sorts by its key like any other event. Run and
// Step must queue it before they look for the earliest event; left in
// the mailbox through the first window, it ran after a later-keyed
// event of its destination, on two partitions only.
func TestGroupQuiescedSendKeyOrder(t *testing.T) {
	for _, step := range []bool{false, true} {
		for _, parts := range []int{1, 2} {
			g := NewGroup(1, 2, parts, 300*Nanosecond)
			k0, k1 := g.Kernel(0), g.Kernel(1)
			var got []string
			k1.At(20*Microsecond, func() { got = append(got, fmt.Sprintf("timer@%d", k1.Now())) })
			k0.SendTo(k1, Microsecond, func(any, []byte) { got = append(got, fmt.Sprintf("frame@%d", k1.Now())) }, nil, nil)
			if step {
				for g.Step() {
				}
			} else {
				g.Run()
			}
			if s, want := fmt.Sprint(got), "[frame@1000 timer@20000]"; s != want {
				t.Fatalf("partitions=%d step=%v: fired %s, want %s", parts, step, s, want)
			}
		}
	}
}

// TestGroupPendingCountsQuiescedSend: a frame and a control hop sent to
// another domain while the group is quiesced are pending at once, at
// every partition count, though on several partitions they wait in a
// mailbox until the next Run or Step.
func TestGroupPendingCountsQuiescedSend(t *testing.T) {
	for _, parts := range []int{1, 2} {
		g := NewGroup(1, 2, parts, 300*Nanosecond)
		k0, k1 := g.Kernel(0), g.Kernel(1)
		k0.SendTo(k1, Microsecond, func(any, []byte) {}, nil, nil)
		if n := g.Pending(); n != 1 {
			t.Fatalf("partitions=%d: Pending() = %d after a quiesced SendTo, want 1", parts, n)
		}
		k1.Call(k0, func() {})
		if n := g.Pending(); n != 2 {
			t.Fatalf("partitions=%d: Pending() = %d after a quiesced Call, want 2", parts, n)
		}
		g.Run()
		if n, p := g.Pending(), g.Processed(); n != 0 || p != 2 {
			t.Fatalf("partitions=%d: after Run, Pending() = %d and Processed() = %d, want 0 and 2", parts, n, p)
		}
	}
}

// TestArrivalLaneOrder: a frame a domain sends to itself for instant t
// runs after every event the domain has for t, even one pushed after
// the send (a timer armed later, and one an event at t arms for t), and
// before a higher domain's event at t. Step runs the global key order at
// every partition count, Run at one partition.
func TestArrivalLaneOrder(t *testing.T) {
	const at = 2 * Microsecond
	for _, parts := range []int{1, 2} {
		for _, step := range []bool{false, true} {
			if parts > 1 && !step {
				continue // Run interleaves partitions in real time
			}
			g := NewGroup(1, 2, parts, 300*Nanosecond)
			k0, k1 := g.Kernel(0), g.Kernel(1)
			var got []string
			k1.At(at, func() { got = append(got, "shard") })
			k0.At(Microsecond, func() {
				k0.SendTo(k0, at, func(any, []byte) { got = append(got, "frame") }, nil, nil)
			})
			k0.At(Microsecond+1, func() {
				k0.At(at, func() {
					got = append(got, "timer")
					k0.At(at, func() { got = append(got, "echo") })
				})
			})
			if step {
				for g.Step() {
				}
			} else {
				g.Run()
			}
			if s, want := fmt.Sprint(got), "[timer echo frame shard]"; s != want {
				t.Fatalf("partitions=%d step=%v: fired %s, want %s", parts, step, s, want)
			}
		}
	}
}
