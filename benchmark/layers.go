package main

import (
	"fmt"
	"math/rand"
	"time"

	"p4ce"
	"p4ce/internal/mu"
	"p4ce/internal/rnic"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/tofino"
)

// Layer drivers: each times calls into one package's exported
// functions, outside any cluster, so a change to one layer shows at its
// own boundary before it shows end to end. A driver reports the best of
// layerSegs equal segments in host ns per call (see README.md for why
// the best and not the mean on this machine).

const layerSegs = 20

// layerDriver is one named micro-measurement. setup builds the fixture
// and returns the function that performs one segment of `calls` calls
// and reports how long they took.
type layerDriver struct {
	name  string
	calls int // calls per segment at full scale
	setup func(seed int64, calls int) func() time.Duration
	// per divides the segment time further (copies per multicast).
	per int
}

// timed is a segment that is all measured work.
func timed(run func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		run()
		return time.Since(t0)
	}
}

func runLayerDrivers(seed int64, scale float64) metrics {
	out := metrics{}
	for _, d := range layerDrivers {
		calls := int(float64(d.calls) * scale)
		if calls < 16 {
			calls = 16
		}
		segment := d.setup(seed, calls)
		segment() // warm pools and caches
		best := time.Duration(1 << 62)
		for i := 0; i < layerSegs; i++ {
			if dt := segment(); dt < best {
				best = dt
			}
		}
		per := d.per
		if per == 0 {
			per = 1
		}
		out[d.name] = float64(best.Nanoseconds()) / float64(calls*per)
	}
	return out
}

// chains keeps 1000 self-rescheduling no-op events pending on k (each
// fires every 100 µs, staggered 100 ns apart), so every executed event
// schedules one more: the kernel's steady state under load.
func chains(k *sim.Kernel) {
	var again func(any)
	again = func(any) { k.ScheduleArg(100*sim.Microsecond, again, nil) }
	for i := 0; i < 1000; i++ {
		k.ScheduleArg(sim.Time(i)*100*sim.Nanosecond, again, nil)
	}
}

func writePacket(payload int) *roce.Packet {
	return &roce.Packet{
		SrcIP: simnet.AddrFrom(10, 0, 0, 1), DstIP: simnet.AddrFrom(10, 0, 0, 2),
		SrcPort: 49152, OpCode: roce.OpWriteOnly, DestQP: 17, AckReq: true, PSN: 4711,
		VA: 0x100000, RKey: 0xC0FFEE, DMALen: uint32(payload),
		Payload: make([]byte, payload),
	}
}

func marshalDriver(payload int) func(int64, int) func() time.Duration {
	return func(seed int64, calls int) func() time.Duration {
		pkt := writePacket(payload)
		rand.New(rand.NewSource(seed)).Read(pkt.Payload)
		buf := make([]byte, pkt.WireSize())
		return timed(func() {
			for i := 0; i < calls; i++ {
				pkt.PSN = uint32(i) & roce.PSNMask
				pkt.MarshalInto(buf)
			}
		})
	}
}

func unmarshalDriver(payload int) func(int64, int) func() time.Duration {
	return func(seed int64, calls int) func() time.Duration {
		pkt := writePacket(payload)
		rand.New(rand.NewSource(seed)).Read(pkt.Payload)
		frame := pkt.Marshal()
		var into roce.Packet
		return timed(func() {
			for i := 0; i < calls; i++ {
				if err := roce.UnmarshalInto(frame, &into); err != nil {
					panic(err)
				}
			}
		})
	}
}

// writeRTT posts one RDMA write of size bytes between two NICs on one
// link and runs the kernel until it completes.
func writeRTT(size int) func(int64, int) func() time.Duration {
	return func(seed int64, calls int) func() time.Duration {
		k := sim.NewKernel(seed)
		cfg := rnic.DefaultConfig()
		client := rnic.New(k, cfg, simnet.AddrFrom(10, 0, 0, 1))
		server := rnic.New(k, cfg, simnet.AddrFrom(10, 0, 0, 2))
		cp := simnet.NewPort(k, "client", nil)
		sp := simnet.NewPort(k, "server", nil)
		simnet.Connect(cp, sp, simnet.DefaultLinkConfig())
		client.AttachPort(cp)
		server.AttachPort(sp)
		mr := server.RegisterMR(0x10000, make([]byte, 64<<10), rnic.AccessRemoteRead|rnic.AccessRemoteWrite)
		cqp, sqp := client.CreateQP(), server.CreateQP()
		cqp.Connect(server.IP(), sqp.Num(), 100, 200)
		sqp.Connect(client.IP(), cqp.Num(), 200, 100)
		data := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(data)
		completed := 0
		done := func(err error) {
			if err != nil {
				panic(err)
			}
			completed++
		}
		return timed(func() {
			want := completed + calls
			for i := 0; i < calls; i++ {
				if err := cqp.PostWrite(data, mr.Base(), mr.RKey(), done); err != nil {
					panic(err)
				}
				k.Run()
			}
			if completed != want {
				panic(fmt.Sprintf("rnic driver: %d of %d writes completed", completed-want+calls, calls))
			}
		})
	}
}

// fanout is the benchmark's own data-plane program: every packet is
// multicast to group 1.
type fanout struct{}

func (fanout) Ingress(*tofino.Switch, tofino.PortID, *roce.Packet) tofino.IngressResult {
	return tofino.IngressResult{Verdict: tofino.VerdictMulticast, Group: 1}
}
func (fanout) Egress(*tofino.Switch, tofino.PortID, uint16, *roce.Packet) bool { return true }

// throughSwitch sends one 64 B write from a host port into a switch
// running prog and runs the kernel until every copy has left it.
func throughSwitch(prog tofino.Program, receivers int) func(int64, int) func() time.Duration {
	return func(seed int64, calls int) func() time.Duration {
		k := sim.NewKernel(seed)
		sw := tofino.New(k, "sw", simnet.AddrFrom(10, 0, 0, 254), tofino.DefaultConfig())
		sw.SetProgram(prog)
		received := 0
		sink := simnet.HandlerFunc(func(p *simnet.Port, frame []byte) {
			received++
			k.Buffers().Put(frame)
		})
		attach := func(i int) (*simnet.Port, tofino.PortID) {
			host := simnet.NewPort(k, fmt.Sprintf("h%d", i), sink)
			pid, swPort := sw.AddPort(fmt.Sprintf("eth%d", i))
			simnet.Connect(host, swPort, simnet.DefaultLinkConfig())
			sw.BindAddr(simnet.AddrFrom(10, 0, 0, byte(i+1)), pid)
			return host, pid
		}
		src, _ := attach(0)
		var members []tofino.GroupMember
		for i := 1; i <= receivers; i++ {
			_, pid := attach(i)
			members = append(members, tofino.GroupMember{Port: pid, RID: uint16(i)})
		}
		sw.SetMulticastGroup(1, members)
		tmpl := writePacket(64).Marshal() // 10.0.0.1 → 10.0.0.2
		return timed(func() {
			want := received + calls*receivers
			for i := 0; i < calls; i++ {
				frame := k.Buffers().Get(len(tmpl))
				copy(frame, tmpl)
				src.Send(frame)
				k.Run()
			}
			if received != want {
				panic(fmt.Sprintf("tofino driver: %d of %d copies delivered", received-want+calls*receivers, calls*receivers))
			}
		})
	}
}

var layerDrivers = []layerDriver{
	{name: "sim.schedule_step_ns", calls: 200_000, setup: func(seed int64, calls int) func() time.Duration {
		k := sim.NewKernel(seed)
		chains(k)
		return timed(func() {
			for i := 0; i < calls; i++ {
				k.Step()
			}
		})
	}},
	{name: "sim.timer_cancel_ns", calls: 200_000, setup: func(seed int64, calls int) func() time.Duration {
		// The retransmission-timeout pattern: armed far ahead, almost
		// always stopped before it fires.
		k := sim.NewKernel(seed)
		chains(k)
		fn := func() {}
		return timed(func() {
			for i := 0; i < calls; i++ {
				k.Schedule(131*sim.Microsecond, fn).Stop()
			}
		})
	}},
	{name: "sim.ticker_tick_ns", calls: 200_000, setup: func(seed int64, calls int) func() time.Duration {
		k := sim.NewKernel(seed)
		k.NewTicker(20*sim.Microsecond, func() {})
		return timed(func() {
			for i := 0; i < calls; i++ {
				k.Step()
			}
		})
	}},
	{name: "sim.group_step_ns", calls: 200_000, setup: func(seed int64, calls int) func() time.Duration {
		// The same chains on one shard domain of a partitioned kernel,
		// advanced in lookahead windows as Cluster.Run does.
		g := sim.NewGroup(seed, 5, 1, simnet.DefaultLinkConfig().Propagation)
		chains(g.Kernel(1))
		return timed(func() {
			// 1000 chains 100 µs apart: 10 events per simulated µs.
			g.RunFor(sim.Time(calls/10) * sim.Microsecond)
		})
	}},
	{name: "roce.marshal_64B_ns", calls: 100_000, setup: marshalDriver(64)},
	{name: "roce.unmarshal_64B_ns", calls: 100_000, setup: unmarshalDriver(64)},
	{name: "roce.marshal_1KiB_ns", calls: 50_000, setup: marshalDriver(1024)},
	{name: "roce.unmarshal_1KiB_ns", calls: 50_000, setup: unmarshalDriver(1024)},
	{name: "simnet.send_deliver_ns", calls: 100_000, setup: func(seed int64, calls int) func() time.Duration {
		k := sim.NewKernel(seed)
		received := 0
		a := simnet.NewPort(k, "a", nil)
		b := simnet.NewPort(k, "b", simnet.HandlerFunc(func(p *simnet.Port, frame []byte) {
			received++
			k.Buffers().Put(frame)
		}))
		simnet.Connect(a, b, simnet.DefaultLinkConfig())
		return timed(func() {
			want := received + calls
			for i := 0; i < calls; i++ {
				a.Send(k.Buffers().Get(128))
				k.Step()
			}
			if received != want {
				panic("simnet driver: frames lost")
			}
		})
	}},
	{name: "rnic.write_rtt_64B_ns", calls: 20_000, setup: writeRTT(64)},
	{name: "rnic.write_rtt_4KiB_ns", calls: 5_000, setup: writeRTT(4096)},
	{name: "tofino.l3_forward_ns", calls: 20_000, setup: throughSwitch(&tofino.L3Program{}, 1)},
	{name: "tofino.mcast_copy_ns", calls: 10_000, per: 4, setup: throughSwitch(fanout{}, 4)},
	{name: "mu.encode_entry_ns", calls: 100_000, setup: func(seed int64, calls int) func() time.Duration {
		e := mu.Entry{Term: 3, PrevTerm: 3, Data: make([]byte, 64)}
		rand.New(rand.NewSource(seed)).Read(e.Data)
		buf := make([]byte, e.EncodedSize())
		return timed(func() {
			for i := 0; i < calls; i++ {
				e.Index = uint64(i)
				mu.EncodeEntryInto(buf, &e)
			}
		})
	}},
	{name: "mu.consumer_poll_ns", calls: 20_000, setup: func(seed int64, calls int) func() time.Duration {
		// A log ring holding `calls` complete 64 B entries; a fresh
		// consumer polls them all, as a replica does after a burst.
		e := mu.Entry{Term: 1, Data: make([]byte, 64)}
		rand.New(rand.NewSource(seed)).Read(e.Data)
		ring := make([]byte, (calls+1)*e.EncodedSize())
		for i := 0; i < calls; i++ {
			e.Index, e.CommitIndex = uint64(i+1), uint64(i)
			mu.EncodeEntryInto(ring[i*e.EncodedSize():], &e)
			e.PrevTerm = 1
		}
		return timed(func() {
			if got := mu.NewConsumer(ring, 1).Poll(); got != calls {
				panic(fmt.Sprintf("mu driver: consumer polled %d of %d entries", got, calls))
			}
		})
	}},
	{name: "facade.kv_apply_ns", calls: 50_000, setup: func(seed int64, calls int) func() time.Duration {
		rng := rand.New(rand.NewSource(seed))
		cmds := make([][]byte, calls)
		seq := uint64(0)
		sm := p4ce.NewDedup(p4ce.NewKV())
		return func() time.Duration {
			// A session never repeats a sequence number, so every
			// segment applies commands of its own, made before its
			// clock starts.
			for i := range cmds {
				seq++
				cmds[i] = p4ce.WrapSession(7, seq, p4ce.SetCommand(fmt.Sprintf("k%04d", rng.Intn(4096)), "value-of-sixteen"))
			}
			t0 := time.Now()
			for i, cmd := range cmds {
				sm.Apply(uint64(i), cmd)
			}
			return time.Since(t0)
		}
	}},
}
