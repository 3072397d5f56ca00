package simnet

import (
	"encoding/binary"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p4ce/internal/metrics"
	"p4ce/internal/sim"
)

type capture struct {
	frames [][]byte
	at     []sim.Time
	k      *sim.Kernel
}

func (c *capture) HandleFrame(_ *Port, f []byte) {
	c.frames = append(c.frames, f)
	c.at = append(c.at, c.k.Now())
}

func pair(k *sim.Kernel, cfg LinkConfig) (*Port, *Port, *capture, *capture) {
	ca, cb := &capture{k: k}, &capture{k: k}
	a := NewPort(k, "a", ca)
	b := NewPort(k, "b", cb)
	Connect(a, b, cfg)
	return a, b, ca, cb
}

func TestAddr(t *testing.T) {
	a := AddrFrom(10, 0, 0, 42)
	if got := a.String(); got != "10.0.0.42" {
		t.Fatalf("String() = %q", got)
	}
	o1, o2, o3, o4 := a.Octets()
	if o1 != 10 || o2 != 0 || o3 != 0 || o4 != 42 {
		t.Fatalf("Octets() = %d.%d.%d.%d", o1, o2, o3, o4)
	}
}

func TestDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := LinkConfig{BitsPerSecond: 1e9, Propagation: 100} // 1 Gb/s: 8 ns/B
	a, _, _, cb := pair(k, cfg)
	a.Send([]byte("hello"))
	k.Run()
	if len(cb.frames) != 1 || string(cb.frames[0]) != "hello" {
		t.Fatalf("received %q", cb.frames)
	}
	// 5 bytes at 8 ns/byte = 40 ns serialization + 100 ns propagation.
	if cb.at[0] != 140 {
		t.Fatalf("arrival at %v, want 140", cb.at[0])
	}
}

func TestSerializationQueuing(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := LinkConfig{BitsPerSecond: 1e9} // 8 ns per byte
	a, _, _, cb := pair(k, cfg)
	a.Send(make([]byte, 100)) // 800 ns
	a.Send(make([]byte, 100)) // arrives at 1600 ns
	k.Run()
	if len(cb.at) != 2 || cb.at[0] != 800 || cb.at[1] != 1600 {
		t.Fatalf("arrivals = %v, want [800 1600]", cb.at)
	}
}

func TestFullDuplex(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := LinkConfig{BitsPerSecond: 1e9}
	a, b, ca, cb := pair(k, cfg)
	a.Send(make([]byte, 100))
	b.Send(make([]byte, 100))
	k.Run()
	if len(ca.at) != 1 || len(cb.at) != 1 {
		t.Fatal("frames lost")
	}
	if ca.at[0] != 800 || cb.at[0] != 800 {
		t.Fatalf("directions interfered: %v %v", ca.at, cb.at)
	}
}

func TestFrameOverheadCountsOnWire(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := LinkConfig{BitsPerSecond: 1e9, FrameOverheadBytes: 20}
	a, _, _, cb := pair(k, cfg)
	a.Send(make([]byte, 80)) // 100 B on wire = 800 ns
	k.Run()
	if cb.at[0] != 800 {
		t.Fatalf("arrival at %v, want 800", cb.at[0])
	}
	if got := a.Stats().TxBytes; got != 80 {
		t.Fatalf("TxBytes = %d, want 80 (overhead not counted as payload)", got)
	}
}

func TestLinkDown(t *testing.T) {
	k := sim.NewKernel(1)
	a, _, _, cb := pair(k, DefaultLinkConfig())
	a.SetUp(false)
	if a.Send([]byte("x")) {
		t.Fatal("Send succeeded on a downed port")
	}
	k.Run()
	if len(cb.frames) != 0 {
		t.Fatal("frame delivered through downed port")
	}
	if a.Stats().TxDropped != 1 {
		t.Fatalf("TxDropped = %d, want 1", a.Stats().TxDropped)
	}
	a.SetUp(true)
	if !a.Send([]byte("x")) {
		t.Fatal("Send failed after re-raising port")
	}
	k.Run()
	if len(cb.frames) != 1 {
		t.Fatal("frame lost after link repair")
	}
}

func TestReceiverDownDropsInFlight(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := LinkConfig{BitsPerSecond: 1e9, Propagation: 1000}
	a, b, _, cb := pair(k, cfg)
	a.Send([]byte("x"))
	k.Schedule(500, func() { b.SetUp(false) }) // crash while frame in flight
	k.Run()
	if len(cb.frames) != 0 {
		t.Fatal("in-flight frame delivered to crashed receiver")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultLinkConfig()
	a, _, _, _ := pair(k, cfg)
	if a.Send(make([]byte, cfg.MaxFrameBytes+1)) {
		t.Fatal("oversize frame accepted")
	}
}

func TestLoss(t *testing.T) {
	k := sim.NewKernel(7)
	cfg := LinkConfig{BitsPerSecond: 1e9}
	a, _, _, cb := pair(k, cfg)
	a.SetLoss(1.0)
	for i := 0; i < 10; i++ {
		a.Send([]byte("x"))
	}
	k.Run()
	if len(cb.frames) != 0 {
		t.Fatalf("delivered %d frames at loss=1", len(cb.frames))
	}
	a.SetLoss(0)
	a.Send([]byte("x"))
	k.Run()
	if len(cb.frames) != 1 {
		t.Fatal("frame lost at loss=0")
	}
}

func TestThroughputMatchesBandwidth(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := LinkConfig{BitsPerSecond: 100e9, FrameOverheadBytes: 20}
	a, _, _, cb := pair(k, cfg)
	const frames, size = 1000, 1024
	for i := 0; i < frames; i++ {
		a.Send(make([]byte, size))
	}
	k.Run()
	last := cb.at[len(cb.at)-1]
	gbps := float64(frames*size*8) / last.Seconds() / 1e9
	// 1024/1044 of 100 Gb/s ≈ 98.08 Gb/s goodput.
	if gbps < 97 || gbps > 99 {
		t.Fatalf("goodput = %.2f Gb/s, want ≈98", gbps)
	}
}

func TestTxBacklog(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := LinkConfig{BitsPerSecond: 1e9}
	a, _, _, _ := pair(k, cfg)
	a.Send(make([]byte, 1000)) // 8 µs of wire time
	if bl := a.TxBacklog(); bl != 8000 {
		t.Fatalf("TxBacklog = %v, want 8µs", bl)
	}
	k.Run()
	if bl := a.TxBacklog(); bl != 0 {
		t.Fatalf("TxBacklog after drain = %v, want 0", bl)
	}
}

// TestSendAfterMatchesDelayedSend checks that booking a device's
// transmit pipeline on the wire at hand-off is exact: random bursts of
// mixed-size frames handed to three contended ports with one constant
// delay, every seventh lost by a count-based LossFunc, must arrive at
// the instants and in the order, and leave the port counters and simnet
// metrics (the backlog histogram too), of a reference that runs the
// delay as a kernel event and only then sends.
func TestSendAfterMatchesDelayedSend(t *testing.T) {
	const d = 50 * sim.Nanosecond
	type frame struct {
		at   sim.Time
		port int
		size int
	}
	rng := rand.New(rand.NewSource(3))
	var frames []frame
	for burst := 0; burst < 60; burst++ {
		at, port := sim.Time(rng.Intn(40000)), rng.Intn(3)
		for n := 1 + rng.Intn(8); n > 0; n-- {
			frames = append(frames, frame{at, port, 64 + rng.Intn(1400)})
		}
	}
	type arrival struct {
		at   sim.Time
		port int
		id   uint32
	}
	run := func(booked bool) (got []arrival, stats []PortStats, snap metrics.Snapshot, queued int) {
		k := sim.NewKernel(1)
		k.SetMetrics(metrics.New())
		var tx []*Port
		var all []*Port
		for i := 0; i < 3; i++ {
			a := NewPort(k, "tx", nil)
			b := NewPort(k, "rx", HandlerFunc(func(_ *Port, f []byte) {
				got = append(got, arrival{k.Now(), i, binary.BigEndian.Uint32(f)})
			}))
			Connect(a, b, LinkConfig{BitsPerSecond: 10e9, Propagation: 300, FrameOverheadBytes: 20})
			sent := 0
			a.SetLossFunc(func([]byte) bool { sent++; return sent%7 == 0 })
			tx, all = append(tx, a), append(all, a, b)
		}
		for id, f := range frames {
			buf := make([]byte, f.size)
			binary.BigEndian.PutUint32(buf, uint32(id))
			port := tx[f.port]
			k.At(f.at, func() {
				if booked {
					port.SendAfter(d, buf)
					return
				}
				k.Schedule(d, func() {
					if port.TxBacklog() > 0 {
						queued++
					}
					port.Send(buf)
				})
			})
		}
		k.Run()
		for _, p := range all {
			stats = append(stats, p.Stats())
		}
		// The per-site event counters differ by design.
		snap = k.Metrics().Snapshot()
		maps.DeleteFunc(snap.Counters, func(name string, _ uint64) bool {
			return strings.HasPrefix(name, "sim.events.")
		})
		return got, stats, snap, queued
	}

	want, wantStats, wantSnap, queued := run(false)
	got, gotStats, gotSnap, _ := run(true)
	if queued < len(frames)/4 {
		t.Fatalf("only %d of %d frames queued behind another; the bursts must contend", queued, len(frames))
	}
	if wantStats[0].TxDropped == 0 {
		t.Fatal("the loss function dropped nothing")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("SendAfter delivered %v,\ndelayed Send %v", got, want)
	}
	if !slices.Equal(gotStats, wantStats) {
		t.Fatalf("SendAfter stats %+v, delayed Send %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatalf("SendAfter metrics %+v,\ndelayed Send %+v", gotSnap, wantSnap)
	}
}

// TestSendAfterDecidesAtHandOff pins SendAfter's departure rule: the
// port's state is judged when the frame is handed over, not when it
// reaches the wire.
func TestSendAfterDecidesAtHandOff(t *testing.T) {
	const d = 50 * sim.Nanosecond
	k := sim.NewKernel(1)
	a, _, _, cb := pair(k, LinkConfig{BitsPerSecond: 1e9, Propagation: 100})
	// Handed over while up, port cut halfway through the pipeline: the
	// frame still leaves, 8 ns of wire and 100 ns of flight later.
	if !a.SendAfter(d, []byte("x")) {
		t.Fatal("SendAfter dropped a frame on an up port")
	}
	k.Schedule(d/2, func() { a.SetUp(false) })
	k.Run()
	if len(cb.at) != 1 || cb.at[0] != d+8+100 {
		t.Fatalf("arrivals = %v, want [%v]", cb.at, d+8+100)
	}
	// Handed over while down, port raised before departure: dropped.
	if a.SendAfter(d, []byte("y")) {
		t.Fatal("SendAfter accepted a frame on a downed port")
	}
	k.Schedule(d/2, func() { a.SetUp(true) })
	k.Run()
	if len(cb.frames) != 1 || a.Stats().TxDropped != 1 {
		t.Fatalf("delivered %d frames, dropped %d; want 1 and 1", len(cb.frames), a.Stats().TxDropped)
	}
}

// TestRxDelayDeliversAfterArrival checks that a port's receive delay
// postpones delivery past the frame's last bit, on the same-domain and
// on the cross-domain path, and leaves the other direction alone.
func TestRxDelayDeliversAfterArrival(t *testing.T) {
	const d = 8 * sim.Nanosecond
	cfg := LinkConfig{BitsPerSecond: 1e9, Propagation: 100}
	arrive := sim.Time(8 + 100) // one byte at 8 ns/B, then the flight
	t.Run("same-domain", func(t *testing.T) {
		k := sim.NewKernel(1)
		a, b, ca, cb := pair(k, cfg)
		b.SetRxDelay(d)
		a.Send([]byte("x"))
		b.Send([]byte("y"))
		k.Run()
		if len(cb.at) != 1 || cb.at[0] != arrive+d {
			t.Fatalf("delayed port: arrivals = %v, want [%v]", cb.at, arrive+d)
		}
		if len(ca.at) != 1 || ca.at[0] != arrive {
			t.Fatalf("undelayed port: arrivals = %v, want [%v]", ca.at, arrive)
		}
	})
	t.Run("cross-domain", func(t *testing.T) {
		g := sim.NewGroup(1, 2, 2, cfg.Propagation)
		ka, kb := g.Kernel(1), g.Kernel(0)
		a := NewPort(ka, "a", nil)
		cb := &capture{k: kb}
		b := NewPort(kb, "b", cb)
		Connect(a, b, cfg)
		b.SetRxDelay(d)
		ka.At(0, func() { a.Send([]byte("x")) })
		g.Run()
		if len(cb.at) != 1 || cb.at[0] != arrive+d {
			t.Fatalf("arrivals = %v, want [%v]", cb.at, arrive+d)
		}
	})
}

// TestRxDelayJudgesLinkAtDelivery pins the receive side's departure
// rule: with a receive delay, the port's link state is judged at
// delivery, d after the last bit arrives, not at the arrival itself.
func TestRxDelayJudgesLinkAtDelivery(t *testing.T) {
	const d = 8 * sim.Nanosecond
	arrive := sim.Time(8 + 100)
	k := sim.NewKernel(1)
	a, b, _, cb := pair(k, LinkConfig{BitsPerSecond: 1e9, Propagation: 100})
	b.SetRxDelay(d)
	var taps []TapDirection
	b.AddTap(func(dir TapDirection, _ []byte) { taps = append(taps, dir) })
	// Arrived while up, port cut before delivery: dropped at delivery.
	a.Send([]byte("x"))
	k.At(arrive+d/2, func() { b.SetUp(false) })
	k.Run()
	if len(cb.frames) != 0 || b.Stats().RxFrames != 0 || !slices.Equal(taps, []TapDirection{TapDrop}) {
		t.Fatalf("cut port: delivered %d frames, RxFrames %d, taps %v; want 0, 0, [TapDrop]",
			len(cb.frames), b.Stats().RxFrames, taps)
	}
	// Arrived while down, port raised before delivery: delivered.
	start := k.Now()
	a.Send([]byte("y"))
	k.At(start+arrive+d/2, func() { b.SetUp(true) })
	k.Run()
	if len(cb.at) != 1 || cb.at[0] != start+arrive+d || b.Stats().RxFrames != 1 {
		t.Fatalf("raised port: arrivals %v, RxFrames %d; want [%v], 1",
			cb.at, b.Stats().RxFrames, start+arrive+d)
	}
}

func TestDoubleConnectPanics(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewPort(k, "a", nil)
	b := NewPort(k, "b", nil)
	c := NewPort(k, "c", nil)
	Connect(a, b, DefaultLinkConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("second Connect did not panic")
		}
	}()
	Connect(a, c, DefaultLinkConfig())
}
