package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"p4ce/internal/metrics"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestKernelScheduleFromHandler(t *testing.T) {
	k := NewKernel(1)
	var fired bool
	k.Schedule(10, func() {
		k.Schedule(5, func() { fired = true })
	})
	k.Run()
	if !fired {
		t.Fatal("nested event did not fire")
	}
	if k.Now() != 15 {
		t.Fatalf("Now() = %v, want 15", k.Now())
	}
}

func TestKernelPastSchedulingClamps(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(100, func() {
		k.At(10, func() {
			if k.Now() != 100 {
				t.Fatalf("past event ran at %v, want 100", k.Now())
			}
		})
	})
	k.Run()
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.Schedule(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	k.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.Schedule(10, func() {})
	k.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true after the timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var count int
	k.Schedule(10, func() { count++ })
	k.Schedule(20, func() { count++ })
	k.Schedule(30, func() { count++ })
	k.RunUntil(20)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", k.Now())
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d after Run, want 3", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(500)
	if k.Now() != 500 {
		t.Fatalf("Now() = %v, want 500", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	var count int
	k.Schedule(10, func() { count++; k.Stop() })
	k.Schedule(20, func() { count++ })
	k.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt Run)", count)
	}
	k.Run() // resumes
	if count != 2 {
		t.Fatalf("count = %d, want 2 after resuming", count)
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	var tk *Ticker
	tk = k.NewTicker(100, func() {
		ticks = append(ticks, k.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	k.RunUntil(10_000)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %d, want 3", len(ticks))
	}
	for i, at := range ticks {
		if want := Time(100 * (i + 1)); at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopFromOutside(t *testing.T) {
	k := NewKernel(1)
	n := 0
	tk := k.NewTicker(10, func() { n++ })
	k.Schedule(35, func() { tk.Stop() })
	k.RunUntil(1000)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		k := NewKernel(seed)
		var got []int
		for i := 0; i < 100; i++ {
			i := i
			d := Time(k.Rand().Intn(1000))
			k.Schedule(d, func() { got = append(got, i) })
		}
		k.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCPUSerializes(t *testing.T) {
	k := NewKernel(1)
	c := NewCPU(k)
	var done []Time
	record := func(any) { done = append(done, k.Now()) }
	c.DoArg(100, record, nil)
	c.DoArg(50, record, nil)
	k.Run()
	if done[0] != 100 || done[1] != 150 {
		t.Fatalf("completion times = %v, want [100 150]", done)
	}
}

func TestCPUIdleGap(t *testing.T) {
	k := NewKernel(1)
	c := NewCPU(k)
	c.DoArg(10, func(any) {}, nil)
	k.Schedule(1000, func() {
		c.DoArg(10, func(any) {
			if k.Now() != 1010 {
				t.Fatalf("work after idle gap completed at %v, want 1010", k.Now())
			}
		}, nil)
	})
	k.Run()
	if c.Busy() != 20 {
		t.Fatalf("Busy() = %v, want 20", c.Busy())
	}
}

func TestCPUBacklogAndUtilization(t *testing.T) {
	k := NewKernel(1)
	c := NewCPU(k)
	nop := func(any) {}
	c.DoArg(100, nop, nil)
	c.DoArg(100, nop, nil)
	if got := c.Backlog(); got != 200 {
		t.Fatalf("Backlog() = %v, want 200", got)
	}
	k.RunUntil(400)
	if got := c.Backlog(); got != 0 {
		t.Fatalf("Backlog() after draining = %v, want 0", got)
	}
	if u := c.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization() = %v, want 0.5", u)
	}
}

func TestLatencyRecorder(t *testing.T) {
	r := NewLatencyRecorder(0)
	for i := 1; i <= 100; i++ {
		r.Record(Time(i))
	}
	if r.Mean() != 50 { // (1+..+100)/100 = 50.5, integer division
		t.Fatalf("Mean() = %v, want 50", r.Mean())
	}
	if p := r.Percentile(50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := r.Percentile(99); p != 99 {
		t.Fatalf("p99 = %v, want 99", p)
	}
	if r.Max() != 100 {
		t.Fatalf("Max() = %v, want 100", r.Max())
	}
	if r.Min() != 1 {
		t.Fatalf("Min() = %v, want 1", r.Min())
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		give Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tt.give), got, tt.want)
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewLatencyRecorder(len(raw))
		for _, v := range raw {
			r.Record(Time(v))
		}
		prev := Time(-1)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
			cur := r.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return r.Percentile(100) == r.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	k := NewKernel(1)
	if k.Pending() != 0 {
		t.Fatalf("fresh kernel Pending = %d", k.Pending())
	}
	var timers []Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, k.Schedule(Time(100+i), func() {}))
	}
	if k.Pending() != 10 {
		t.Fatalf("Pending = %d after 10 schedules", k.Pending())
	}
	// Stopping drops the live count immediately, even though the canceled
	// record may stay resident in the heap until compaction.
	timers[3].Stop()
	timers[7].Stop()
	if k.Pending() != 8 {
		t.Fatalf("Pending = %d after 2 stops", k.Pending())
	}
	timers[3].Stop() // double-stop is a no-op
	if k.Pending() != 8 {
		t.Fatalf("Pending = %d after double stop", k.Pending())
	}
	k.Step()
	if k.Pending() != 7 {
		t.Fatalf("Pending = %d after one fire", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", k.Pending())
	}
}

// TestCanceledResidencyCompaction is a regression test for the memory
// profile of stop-heavy workloads: a retransmission timer re-armed on
// every ACK leaves one canceled record per arm, and without compaction a
// long-RTO QP would pin an ever-growing heap of dead events. The heap
// must stay within a constant factor of the live count.
func TestCanceledResidencyCompaction(t *testing.T) {
	k := NewKernel(1)
	// One long-lived event keeps the heap non-empty throughout.
	k.Schedule(1<<40, func() {})
	for i := 0; i < 100000; i++ {
		tm := k.Schedule(1<<30, func() {}) // long RTO, never fires
		tm.Stop()
		if ql, live := k.queueLen(), k.Pending(); ql > 2*live+compactThreshold {
			t.Fatalf("iteration %d: %d resident events for %d live", i, ql, live)
		}
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
}

// TestCompactionPreservesOrder verifies cancel-compaction is invisible
// to delivery order: interleaved live and canceled events fire in the
// same (time, seq) order a compaction-free kernel would use.
func TestCompactionPreservesOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	var want []int
	for i := 0; i < 500; i++ {
		i := i
		at := Time(1000 + (i*7919)%997) // scrambled, collides often
		tm := k.At(at, func() { got = append(got, i) })
		if i%3 == 0 {
			tm.Stop()
		} else {
			want = append(want, i)
		}
	}
	// Sort want by (time, insertion seq) — the kernel's contract.
	sort.SliceStable(want, func(a, b int) bool {
		ta := Time(1000 + (want[a]*7919)%997)
		tb := Time(1000 + (want[b]*7919)%997)
		return ta < tb
	})
	k.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: fired %d, want %d", i, got[i], want[i])
		}
	}
}

func countArg(a any)               { *a.(*int)++ }
func countFrame(a any, buf []byte) { *a.(*int) += len(buf) }

// TestEventsBySite checks the per-callback event counters of a kernel
// with a metrics registry: one sim.events.<site> counter per callback,
// whichever of the three callback forms scheduled it, summing to
// Processed — which does not depend on whether a registry is attached.
func TestEventsBySite(t *testing.T) {
	run := func(r *metrics.Registry) uint64 {
		g := NewGroup(1, 2, 1, Nanosecond)
		g.SetMetrics(r)
		k, peer := g.Kernel(0), g.Kernel(1)
		n := 0
		for i := 0; i < 3; i++ {
			k.ScheduleArg(Time(i), countArg, &n)
		}
		k.Schedule(5, func() { k.SendTo(peer, 10, countFrame, &n, make([]byte, 4)) })
		tk := k.NewTicker(3, func() {})
		k.RunUntil(10)
		tk.Stop()
		if n != 7 {
			t.Fatalf("callbacks ran %d units, want 7", n)
		}
		return k.Processed()
	}
	r := metrics.New()
	processed := run(r)
	if off := run(nil); off != processed {
		t.Fatalf("Processed = %d with metrics, %d without", processed, off)
	}
	// Closures keep their compiler-assigned .funcN suffixes, so the one
	// closure site here is matched by prefix.
	const closure = "sim.events.sim.TestEventsBySite."
	want := map[string]uint64{
		"sim.events.sim.countArg":       3,
		"sim.events.sim.countFrame":     1,
		"sim.events.sim.(*Ticker).tick": 3,
		closure:                         1,
	}
	var sum uint64
	for name, v := range r.Snapshot().Counters {
		if !strings.HasPrefix(name, "sim.events.") {
			continue
		}
		sum += v
		if strings.HasPrefix(name, closure) {
			name = closure
		}
		if v != want[name] {
			t.Errorf("%s = %d, want %d", name, v, want[name])
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("no counter %s", name)
	}
	if sum != processed {
		t.Fatalf("site counters sum to %d, Processed = %d", sum, processed)
	}
}
