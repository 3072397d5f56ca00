package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks: everything in the repository ultimately turns
// into events on this queue.

func BenchmarkScheduleAndRun(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i%1000), func() {})
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

func BenchmarkTimerChurn(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := k.Schedule(1000, func() {})
		t.Stop()
		if i%4096 == 4095 {
			k.Run() // drain canceled events
		}
	}
}

// BenchmarkCPUWorkItems measures one CPU work item in the form the
// consensus hot path uses: a persistent callback plus a per-item
// argument, which must not allocate (0 allocs/op).
func BenchmarkCPUWorkItems(b *testing.B) {
	k := NewKernel(1)
	c := NewCPU(k)
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.DoArg(100, fn, nil)
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkTickerTicks measures the steady-state cost of one tick of a
// persistent Ticker. The guardrail is the allocs/op column: re-arming
// must reuse the ticker's bound callback and a pooled event (0 allocs),
// not mint a closure per tick.
func BenchmarkTickerTicks(b *testing.B) {
	k := NewKernel(1)
	ticks := 0
	tk := k.NewTicker(10, func() { ticks++ })
	defer tk.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for ticks < b.N {
		k.Step()
	}
}

// BenchmarkEventThroughput reports raw kernel events/sec for a
// self-sustaining chain: each event schedules its successor, so the
// queue stays warm and the measurement isolates pop + dispatch + pooled
// re-push.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.Schedule(1, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(1, fn)
	k.Run()
}

// BenchmarkQueueDepth is the classic hold model at a fixed queue depth:
// every event re-schedules itself a random delay ahead, so each op is
// one pop and one push with exactly depth events pending. The three
// depths bracket what the simulator sees (a quiet cluster, a loaded one,
// a sharded one) and give the next queue change a per-depth row to
// compare against. Steady state must not allocate.
func BenchmarkQueueDepth(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
	}{{"16", 16}, {"1k", 1 << 10}, {"64k", 1 << 16}} {
		b.Run(bc.name, func(b *testing.B) {
			k := NewKernel(1)
			rng := rand.New(rand.NewSource(1))
			delays := make([]Time, 1<<12)
			for i := range delays {
				delays[i] = Time(rng.Intn(100 * bc.depth))
			}
			n := 0
			var hold func(any)
			hold = func(any) {
				k.ScheduleArg(delays[n&(len(delays)-1)], hold, nil)
				n++
			}
			for i := 0; i < bc.depth; i++ {
				hold(nil)
			}
			for i := 0; i < 2*bc.depth; i++ { // reach the steady-state shape
				k.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
			b.StopTimer()
			if k.Pending() != bc.depth {
				b.Fatalf("%d events pending, want %d", k.Pending(), bc.depth)
			}
			if allocs := testing.AllocsPerRun(1000, func() { k.Step() }); allocs != 0 {
				b.Fatalf("%v allocs per pop+push at depth %d, want 0", allocs, bc.depth)
			}
		})
	}
}

// BenchmarkBuffersGetPut measures one pooled buffer round trip at sizes
// the workloads take: a 64 B op as the batcher copies it, the 171 B
// write frame of a 64 B op, the 1 082 B middle segment of a 4 KiB write
// and the 4 129 B encoded 4 KiB Mu entry. Each pays a class lookup in
// Get and another in Put.
func BenchmarkBuffersGetPut(b *testing.B) {
	for _, size := range []int{64, 171, 1082, 4129} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			var pool Buffers
			pool.Put(pool.GetUnzeroed(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool.Put(pool.GetUnzeroed(size))
			}
		})
	}
}
