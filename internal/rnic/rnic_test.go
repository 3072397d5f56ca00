package rnic

import (
	"bytes"
	"errors"
	"testing"

	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// testPair wires two NICs with a direct link and a connected QP pair.
type testPair struct {
	k          *sim.Kernel
	client     *NIC
	server     *NIC
	cqp, sqp   *QP
	serverMR   *MR
	serverMem  []byte
	clientPort *simnet.Port
	serverPort *simnet.Port
}

func newTestPair(t *testing.T, cfg Config) *testPair {
	t.Helper()
	k := sim.NewKernel(1)
	tp := &testPair{k: k}
	tp.client = New(k, cfg, simnet.AddrFrom(10, 0, 0, 1))
	tp.server = New(k, cfg, simnet.AddrFrom(10, 0, 0, 2))
	tp.clientPort = simnet.NewPort(k, "client", nil)
	tp.serverPort = simnet.NewPort(k, "server", nil)
	simnet.Connect(tp.clientPort, tp.serverPort, simnet.DefaultLinkConfig())
	tp.client.AttachPort(tp.clientPort)
	tp.server.AttachPort(tp.serverPort)

	tp.serverMem = make([]byte, 64<<10)
	tp.serverMR = tp.server.RegisterMR(0x10000, tp.serverMem, AccessRemoteRead|AccessRemoteWrite)

	tp.cqp = tp.client.CreateQP()
	tp.sqp = tp.server.CreateQP()
	tp.cqp.Connect(tp.server.IP(), tp.sqp.Num(), 100, 200)
	tp.sqp.Connect(tp.client.IP(), tp.cqp.Num(), 200, 100)
	return tp
}

func TestWriteSmall(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	data := []byte("consensus value")
	var done bool
	err := tp.cqp.PostWrite(data, tp.serverMR.Base()+64, tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatalf("write completion: %v", err)
		}
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if !bytes.Equal(tp.serverMem[64:64+len(data)], data) {
		t.Fatal("server memory does not contain written data")
	}
	if tp.server.Stats.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want 1", tp.server.Stats.AcksSent)
	}
}

func TestWriteMultiPacket(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	data := make([]byte, 5000) // 5 segments at 1024 B MTU
	for i := range data {
		data[i] = byte(i * 7)
	}
	var done bool
	if err := tp.cqp.PostWrite(data, tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatalf("write completion: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if !bytes.Equal(tp.serverMem[:len(data)], data) {
		t.Fatal("multi-packet write corrupted data")
	}
	// Only the last segment should be acknowledged (cumulative ACK).
	if tp.server.Stats.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want 1", tp.server.Stats.AcksSent)
	}
	// PSN accounting: 5 packets consumed.
	if tp.cqp.NextPSN() != 105 {
		t.Fatalf("NextPSN = %d, want 105", tp.cqp.NextPSN())
	}
}

func TestRead(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	want := []byte("heartbeat counter")
	copy(tp.serverMem[128:], want)
	dst := make([]byte, len(want))
	var done bool
	if err := tp.cqp.PostRead(dst, tp.serverMR.Base()+128, tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatalf("read completion: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if !bytes.Equal(dst, want) {
		t.Fatalf("read %q, want %q", dst, want)
	}
}

func TestReadMultiPacket(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	want := make([]byte, 3000)
	for i := range want {
		want[i] = byte(i)
	}
	copy(tp.serverMem, want)
	dst := make([]byte, len(want))
	var done bool
	if err := tp.cqp.PostRead(dst, tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !done || !bytes.Equal(dst, want) {
		t.Fatal("multi-packet read failed")
	}
	// Read consumed 3 PSNs (one per response packet).
	if tp.cqp.NextPSN() != 103 {
		t.Fatalf("NextPSN = %d, want 103", tp.cqp.NextPSN())
	}
}

func TestWriteThenReadSequencing(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	var order []string
	if err := tp.cqp.PostWrite([]byte("abc"), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, "write")
	}); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 3)
	if err := tp.cqp.PostRead(dst, tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, "read")
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if len(order) != 2 || order[0] != "write" || order[1] != "read" {
		t.Fatalf("completion order = %v", order)
	}
	if string(dst) != "abc" {
		t.Fatalf("read %q after write", dst)
	}
}

func TestPermissionDeniedNAK(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	roMem := make([]byte, 1024)
	roMR := tp.server.RegisterMR(0x99000, roMem, AccessRemoteRead) // no write permission
	var gotErr error
	if err := tp.cqp.PostWrite([]byte("x"), roMR.Base(), roMR.RKey(), func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !errors.Is(gotErr, ErrRemoteAccess) {
		t.Fatalf("completion error = %v, want ErrRemoteAccess", gotErr)
	}
	if tp.cqp.State() != StateError {
		t.Fatalf("QP state = %v, want ERROR after fatal NAK", tp.cqp.State())
	}
	if tp.server.Stats.NaksSent == 0 {
		t.Fatal("server sent no NAK")
	}
}

func TestWriterFencing(t *testing.T) {
	// Mu's permission switch: after restricting the writer to another
	// address, this client's writes must fail with a NAK.
	tp := newTestPair(t, DefaultConfig())
	tp.serverMR.RestrictWriter(simnet.AddrFrom(10, 0, 0, 99))
	var gotErr error
	if err := tp.cqp.PostWrite([]byte("stale leader"), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !errors.Is(gotErr, ErrRemoteAccess) {
		t.Fatalf("fenced write error = %v, want ErrRemoteAccess", gotErr)
	}
	// Re-granting the permission to this client lets a fresh QP write.
	tp.serverMR.RestrictWriter(tp.client.IP())
	cqp2 := tp.client.CreateQP()
	sqp2 := tp.server.CreateQP()
	cqp2.Connect(tp.server.IP(), sqp2.Num(), 300, 400)
	sqp2.Connect(tp.client.IP(), cqp2.Num(), 400, 300)
	var ok bool
	if err := cqp2.PostWrite([]byte("new leader"), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		ok = err == nil
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !ok {
		t.Fatal("granted writer could not write")
	}
}

func TestBoundsViolationNAK(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	var gotErr error
	endVA := tp.serverMR.Base() + uint64(tp.serverMR.Len()) - 2
	if err := tp.cqp.PostWrite([]byte("overflow"), endVA, tp.serverMR.RKey(), func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !errors.Is(gotErr, ErrRemoteAccess) {
		t.Fatalf("out-of-bounds write error = %v, want ErrRemoteAccess", gotErr)
	}
}

func TestBadRKeyNAK(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	var gotErr error
	if err := tp.cqp.PostWrite([]byte("x"), tp.serverMR.Base(), tp.serverMR.RKey()+1, func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !errors.Is(gotErr, ErrRemoteAccess) {
		t.Fatalf("bad rkey error = %v, want ErrRemoteAccess", gotErr)
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	// Drop the first transmission attempt entirely.
	tp.clientPort.SetLoss(1.0)
	var done bool
	if err := tp.cqp.PostWrite([]byte("retry me"), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatalf("completion: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	// Heal the link shortly after the first (lost) transmission.
	tp.k.Schedule(10*sim.Microsecond, func() { tp.clientPort.SetLoss(0) })
	tp.k.Run()
	if !done {
		t.Fatal("write did not recover from loss")
	}
	if tp.client.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if !bytes.Equal(tp.serverMem[:8], []byte("retry me")) {
		t.Fatal("data not written after retransmit")
	}
}

func TestRetryExhaustionErrorsQP(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	tp.clientPort.SetLoss(1.0) // permanently dead path
	var gotErr error
	var asyncErr error
	tp.cqp.SetOnError(func(err error) { asyncErr = err })
	if err := tp.cqp.PostWrite([]byte("x"), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !errors.Is(gotErr, ErrRetryExceeded) {
		t.Fatalf("completion error = %v, want ErrRetryExceeded", gotErr)
	}
	if !errors.Is(asyncErr, ErrRetryExceeded) {
		t.Fatalf("async error = %v, want ErrRetryExceeded", asyncErr)
	}
	// Detection time with exponential backoff (1,2,4,8,8,... × 131 µs
	// over MaxRetries+1 = 8 rounds): ≈ 6.2 ms.
	var want sim.Time
	for r := 0; r <= MaxRetries; r++ {
		scale := sim.Time(1) << uint(r)
		if scale > 8 {
			scale = 8
		}
		want += AckTimeout * scale
	}
	if tp.k.Now() < want || tp.k.Now() > want+200*sim.Microsecond {
		t.Fatalf("failure detected at %v, want ≈%v", tp.k.Now(), want)
	}
}

func TestPartialLossGoBackN(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	// 50% loss, then heal: go-back-N plus duplicate suppression must
	// still deliver the message intact exactly once.
	tp.clientPort.SetLoss(0.5)
	data := make([]byte, 8000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	var done bool
	if err := tp.cqp.PostWrite(data, tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatalf("completion: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Schedule(5*sim.Millisecond, func() { tp.clientPort.SetLoss(0) })
	tp.k.Run()
	if !done {
		t.Fatal("write did not complete")
	}
	if !bytes.Equal(tp.serverMem[:len(data)], data) {
		t.Fatal("data corrupted by retransmission")
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxOutstanding = 4
	tp := newTestPair(t, cfg)
	for i := 0; i < 10; i++ {
		if err := tp.cqp.PostWrite([]byte{byte(i)}, tp.serverMR.Base()+uint64(i), tp.serverMR.RKey(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := tp.cqp.OutstandingRequests(); got != 4 {
		t.Fatalf("OutstandingRequests = %d, want 4 (window)", got)
	}
	if got := tp.cqp.QueuedRequests(); got != 6 {
		t.Fatalf("QueuedRequests = %d, want 6", got)
	}
	tp.k.Run()
	if got := tp.cqp.OutstandingRequests(); got != 0 {
		t.Fatalf("OutstandingRequests after drain = %d", got)
	}
	for i := 0; i < 10; i++ {
		if tp.serverMem[i] != byte(i) {
			t.Fatalf("write %d missing", i)
		}
	}
}

func TestRNRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponderSlots = 2
	cfg.ApplyDelay = 50 * sim.Microsecond // slow consumer
	tp := newTestPair(t, cfg)
	const n = 12
	completedCount := 0
	for i := 0; i < n; i++ {
		if err := tp.cqp.PostWrite([]byte{byte(i)}, tp.serverMR.Base()+uint64(i), tp.serverMR.RKey(), func(err error) {
			if err != nil {
				t.Fatalf("completion: %v", err)
			}
			completedCount++
		}); err != nil {
			t.Fatal(err)
		}
	}
	tp.k.Run()
	if completedCount != n {
		t.Fatalf("completed %d of %d writes under backpressure", completedCount, n)
	}
	for i := 0; i < n; i++ {
		if tp.serverMem[i] != byte(i) {
			t.Fatalf("write %d lost under RNR backpressure", i)
		}
	}
	if tp.server.Stats.RNRsSent == 0 {
		t.Fatal("slow responder never sent RNR")
	}
}

func TestOnWriteHook(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	var offsets []int
	tp.serverMR.SetOnWrite(func(off, n int) { offsets = append(offsets, off) })
	if err := tp.cqp.PostWrite([]byte("abc"), tp.serverMR.Base()+10, tp.serverMR.RKey(), nil); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if len(offsets) != 1 || offsets[0] != 10 {
		t.Fatalf("onWrite offsets = %v, want [10]", offsets)
	}
}

func TestPostOnUnreadyQP(t *testing.T) {
	k := sim.NewKernel(1)
	nic := New(k, DefaultConfig(), simnet.AddrFrom(10, 0, 0, 1))
	qp := nic.CreateQP()
	if err := qp.PostWrite([]byte("x"), 0, 0, nil); !errors.Is(err, ErrQPState) {
		t.Fatalf("PostWrite on RESET QP = %v, want ErrQPState", err)
	}
}

func TestDestroyQPFlushes(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	tp.clientPort.SetLoss(1.0)
	var gotErr error
	if err := tp.cqp.PostWrite([]byte("x"), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		gotErr = err
	}); err != nil {
		t.Fatal(err)
	}
	tp.client.DestroyQP(tp.cqp)
	if !errors.Is(gotErr, ErrFlushed) {
		t.Fatalf("flushed completion = %v, want ErrFlushed", gotErr)
	}
	tp.k.Run()
}

func TestSendRecv(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	var got []byte
	tp.sqp.SetOnRecv(func(p []byte) { got = append([]byte(nil), p...) })
	var done bool
	if err := tp.cqp.PostSend([]byte("two-sided"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !done || string(got) != "two-sided" {
		t.Fatalf("send/recv: done=%v got=%q", done, got)
	}
}

func TestCreditsAdvertised(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponderSlots = 8
	cfg.ApplyDelay = sim.Millisecond // slots stay consumed during the test
	tp := newTestPair(t, cfg)
	if err := tp.cqp.PostWrite([]byte("a"), tp.serverMR.Base(), tp.serverMR.RKey(), nil); err != nil {
		t.Fatal(err)
	}
	tp.k.RunUntil(100 * sim.Microsecond)
	// After one write consumed a slot, the ACK advertises 7.
	if got := tp.cqp.Credits(); got != 7 {
		t.Fatalf("Credits = %d, want 7", got)
	}
}

func TestWriteLatencySingleRoundTrip(t *testing.T) {
	// A small write over a 100G link with 300 ns propagation each way
	// must complete in a handful of microseconds — this is the baseline
	// the consensus latency figures build on.
	tp := newTestPair(t, DefaultConfig())
	var at sim.Time
	if err := tp.cqp.PostWrite(make([]byte, 64), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		at = tp.k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if at == 0 || at > 3*sim.Microsecond {
		t.Fatalf("64 B write RTT = %v, want < 3µs", at)
	}
}

func TestPSNWraparoundMidStream(t *testing.T) {
	// Start both directions a few PSNs below the 24-bit wrap and push
	// enough traffic to cross it: sequencing, cumulative ACKs and
	// completion order must be unaffected.
	tp := newTestPair(t, DefaultConfig())
	wrapStart := uint32(roce.PSNMask - 3)
	tp.cqp.Connect(tp.server.IP(), tp.sqp.Num(), wrapStart, 200)
	tp.sqp.Connect(tp.client.IP(), tp.cqp.Num(), 200, wrapStart)
	const n = 20
	completed := 0
	for i := 0; i < n; i++ {
		i := i
		if err := tp.cqp.PostWrite([]byte{byte(i)}, tp.serverMR.Base()+uint64(i), tp.serverMR.RKey(), func(err error) {
			if err != nil {
				t.Fatalf("write %d across wrap: %v", i, err)
			}
			if completed != i {
				t.Fatalf("write %d completed out of order (completed=%d)", i, completed)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	tp.k.Run()
	if completed != n {
		t.Fatalf("completed %d of %d across the PSN wrap", completed, n)
	}
	for i := 0; i < n; i++ {
		if tp.serverMem[i] != byte(i) {
			t.Fatalf("write %d corrupted across the wrap", i)
		}
	}
	if tp.cqp.NextPSN() != (wrapStart+n)&roce.PSNMask {
		t.Fatalf("NextPSN = %#x, want %#x", tp.cqp.NextPSN(), (wrapStart+n)&roce.PSNMask)
	}
}

func TestMultiPacketWriteAcrossPSNWrap(t *testing.T) {
	// A single 5-segment message whose PSNs straddle the wrap.
	tp := newTestPair(t, DefaultConfig())
	wrapStart := uint32(roce.PSNMask - 1)
	tp.cqp.Connect(tp.server.IP(), tp.sqp.Num(), wrapStart, 200)
	tp.sqp.Connect(tp.client.IP(), tp.cqp.Num(), 200, wrapStart)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 11)
	}
	done := false
	if err := tp.cqp.PostWrite(data, tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !done || !bytes.Equal(tp.serverMem[:len(data)], data) {
		t.Fatal("multi-packet write across the PSN wrap failed")
	}
}

// TestSpareLeg: once both cards fail over, traffic flows on their spare
// legs (a repeated failover changes nothing), and powering off darkens
// every leg until the power comes back.
func TestSpareLeg(t *testing.T) {
	tp := newTestPair(t, DefaultConfig())
	cs := simnet.NewPort(tp.k, "client-spare", nil)
	ss := simnet.NewPort(tp.k, "server-spare", nil)
	simnet.Connect(cs, ss, simnet.DefaultLinkConfig())
	tp.client.AttachSpare(cs)
	tp.server.AttachSpare(ss)
	tp.clientPort.SetUp(false) // the primary cable is dead
	tp.serverPort.SetUp(false)
	if tp.client.OnSpare() {
		t.Fatal("on the spare leg before any failover")
	}
	for i := 0; i < 2; i++ {
		tp.client.FailoverToSpare()
	}
	tp.server.FailoverToSpare()
	if !tp.client.OnSpare() || !tp.server.OnSpare() {
		t.Fatal("failover did not move the cards onto their spare legs")
	}
	var done bool
	if err := tp.cqp.PostWrite([]byte("via spare"), tp.serverMR.Base(), tp.serverMR.RKey(), func(err error) {
		if err != nil {
			t.Fatalf("write over the spare leg: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	tp.k.Run()
	if !done || cs.Stats().TxFrames != 1 || ss.Stats().TxFrames != 1 {
		t.Fatalf("done=%v, spare legs sent %d and %d frames; want a completed write, 1 each",
			done, cs.Stats().TxFrames, ss.Stats().TxFrames)
	}

	tp.clientPort.SetUp(true)
	tp.client.SetPower(false)
	if tp.clientPort.Up() || cs.Up() {
		t.Fatal("powering off left a leg up")
	}
	tp.client.SetPower(true)
	if !tp.clientPort.Up() || !cs.Up() {
		t.Fatal("powering on left a leg down")
	}
}
