package trace_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"p4ce"
	"p4ce/internal/mu"
	"p4ce/internal/rnic"
	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
	"p4ce/internal/trace"
)

func TestTraceCapturesWireExchange(t *testing.T) {
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeP4CE, Seed: 2, DisableHeartbeats: true})
	var buf strings.Builder
	tr := cl.EnableTrace(&buf, 512, trace.Filter{Sites: []string{"host0"}})
	cl.ForceLeader(0)
	// Drive until accelerated.
	deadline := cl.Now() + 300*time.Millisecond
	var leader *p4ce.Node
	for cl.Now() < deadline && cl.Step() {
		if l := cl.Leader(); l != nil && l.Accelerated() {
			leader = l
			break
		}
	}
	if leader == nil {
		t.Fatal("no accelerated leader")
	}
	done := false
	if err := leader.Propose([]byte("traced"), func(err error) { done = err == nil }); err != nil {
		t.Fatal(err)
	}
	cl.Run(time.Millisecond)
	if !done {
		t.Fatal("proposal did not commit")
	}

	out := buf.String()
	// The handshake and the replicated write must both be visible.
	for _, want := range []string{
		"cm:ConnectRequest", "cm:ConnectReply", "cm:ReadyToUse",
		"RDMA_WRITE_ONLY", "ACKNOWLEDGE", "ack(credits=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if tr.Total() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	counts := tr.CountByOpCode()
	if counts[roce.OpWriteOnly] == 0 || counts[roce.OpAcknowledge] == 0 {
		t.Fatalf("per-opcode counters = %v", counts)
	}
	// Exactly one aggregated ACK per write at the leader's port.
	if counts[roce.OpAcknowledge] > counts[roce.OpWriteOnly]+counts[roce.OpSendOnly] {
		t.Fatalf("more ACKs than requests at the leader: %v", counts)
	}
}

func TestTraceFilterByOpcode(t *testing.T) {
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeMu, Seed: 2})
	tr := cl.EnableTrace(nil, 64, trace.Filter{OpCodes: []roce.OpCode{roce.OpAcknowledge}})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Propose([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(time.Millisecond)
	for _, e := range tr.Events() {
		if e.Pkt == nil || e.Pkt.OpCode != roce.OpAcknowledge {
			t.Fatalf("filter leaked event %v", e)
		}
	}
	if tr.Total() == 0 {
		t.Fatal("no ACKs captured")
	}
}

func TestTraceRingBounds(t *testing.T) {
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeMu, Seed: 2})
	tr := cl.EnableTrace(nil, 16, trace.Filter{})
	if _, err := cl.RunUntilLeader(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cl.Run(5 * time.Millisecond)
	events := tr.Events()
	if len(events) != 16 {
		t.Fatalf("ring kept %d events, want 16", len(events))
	}
	// Oldest-first ordering.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("ring events out of order")
		}
	}
	if tr.Total() <= 16 {
		t.Fatalf("Total = %d, want > ring size", tr.Total())
	}
}

func TestTraceDropsOnly(t *testing.T) {
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeMu, Seed: 2})
	tr := cl.EnableTrace(nil, 64, trace.Filter{DropsOnly: true})
	if _, err := cl.RunUntilLeader(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 0 {
		t.Fatalf("drops recorded on a lossless fabric: %d", tr.Total())
	}
	// Crash a machine: its peers' heartbeat reads now die at its downed
	// port and surface as drops there.
	cl.Node(2).Crash()
	cl.Run(2 * time.Millisecond)
	if tr.Drops() == 0 {
		t.Fatal("no drops recorded at the crashed machine's port")
	}
	if s := tr.Summary(); !strings.Contains(s, "lost") {
		t.Fatalf("summary = %q", s)
	}
}

func TestTraceFilterByQP(t *testing.T) {
	cl := p4ce.NewCluster(p4ce.Options{Nodes: 3, Mode: p4ce.ModeMu, Seed: 2})
	all := cl.EnableTrace(nil, 256, trace.Filter{OpCodes: []roce.OpCode{roce.OpWriteOnly}})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Propose([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(time.Millisecond)
	events := all.Events()
	if len(events) == 0 {
		t.Fatal("no writes captured")
	}
	qp := events[0].Pkt.DestQP
	flt := cl.EnableTrace(nil, 256, trace.Filter{QPs: []uint32{qp}})
	if err := leader.Propose([]byte("y"), nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(time.Millisecond)
	if flt.Total() == 0 {
		t.Fatalf("QP filter %#x captured nothing", qp)
	}
	for _, e := range flt.Events() {
		if e.Pkt == nil || e.Pkt.DestQP != qp {
			t.Fatalf("QP filter leaked event %v", e)
		}
	}
}

func TestTraceBatchPayloadDecode(t *testing.T) {
	// A FlagBatch entry's wire payload must render its operation count
	// and payload size, not just the raw byte length.
	var data []byte
	for _, op := range []string{"alpha", "omega!"} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(op)))
		data = append(data, hdr[:]...)
		data = append(data, op...)
	}
	payload := mu.EncodeEntry(&mu.Entry{Term: 1, Index: 7, Flags: mu.FlagBatch, Data: data})
	e := trace.Event{
		Site: "host0",
		Pkt:  &roce.Packet{OpCode: roce.OpWriteOnly, DestQP: 0x11, Payload: payload},
		Size: len(payload),
	}
	want := fmt.Sprintf("batch(n=2, bytes=%d)", len(data))
	if s := e.String(); !strings.Contains(s, want) {
		t.Fatalf("String() = %q, want it to contain %q", s, want)
	}
	// A plain entry must not be mislabelled as a batch.
	plain := mu.EncodeEntry(&mu.Entry{Term: 1, Index: 8, Data: []byte("solo")})
	e.Pkt = &roce.Packet{OpCode: roce.OpWriteOnly, DestQP: 0x11, Payload: plain}
	if s := e.String(); strings.Contains(s, "batch(") {
		t.Fatalf("plain entry rendered as batch: %q", s)
	}
}

// TestTraceStampsTxAtHandOff pins the TX semantics of a NIC-originated
// frame: its TX is stamped when the NIC hands it to the port, and its RX
// one NIC pipeline, one serialization and one flight later.
func TestTraceStampsTxAtHandOff(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := rnic.DefaultConfig()
	nic := rnic.New(k, cfg, simnet.AddrFrom(10, 0, 0, 1))
	host := simnet.NewPort(k, "host0", nil)
	nic.AttachPort(host)
	peer := simnet.NewPort(k, "peer", simnet.HandlerFunc(func(_ *simnet.Port, f []byte) {
		k.Buffers().Put(f)
	}))
	// 8 Gb/s puts one byte on the wire per nanosecond.
	link := simnet.LinkConfig{BitsPerSecond: 8e9, Propagation: 300, FrameOverheadBytes: 20}
	simnet.Connect(host, peer, link)
	tr := trace.New(k, 8, trace.Filter{})
	tr.Tap(host, "host0")
	tr.Tap(peer, "peer")

	const handOff = sim.Microsecond
	k.At(handOff, func() {
		msg := &roce.CMMessage{Type: roce.CMConnectRequest, LocalCommID: 1}
		if err := nic.SendCM(simnet.AddrFrom(10, 0, 0, 2), msg); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()

	ev := tr.Events()
	if len(ev) != 2 || ev[0].Dir != simnet.TapTx || ev[1].Dir != simnet.TapRx {
		t.Fatalf("events = %v, want one TX then one RX", ev)
	}
	wire := sim.Time(ev[0].Size + link.FrameOverheadBytes)
	if ev[0].At != handOff {
		t.Fatalf("TX at %v, want the hand-off instant %v", ev[0].At, handOff)
	}
	if want := handOff + rnic.ProcessingDelay + wire + link.Propagation; ev[1].At != want {
		t.Fatalf("RX at %v, want %v", ev[1].At, want)
	}
}
