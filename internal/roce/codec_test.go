package roce

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"p4ce/internal/simnet"
)

func samplePackets() []*Packet {
	return []*Packet{
		{
			SrcIP: simnet.AddrFrom(10, 0, 0, 1), DstIP: simnet.AddrFrom(10, 0, 0, 2),
			SrcPort: 49152, OpCode: OpWriteOnly, DestQP: 0x12345, PSN: 0xABCDE,
			AckReq: true, VA: 0xDEADBEEF00, RKey: 0xCAFEBABE, DMALen: 64,
			Payload: bytes.Repeat([]byte{0x5A}, 64),
		},
		{
			SrcIP: simnet.AddrFrom(10, 0, 0, 2), DstIP: simnet.AddrFrom(10, 0, 0, 1),
			SrcPort: 4791, OpCode: OpAcknowledge, DestQP: 7, PSN: 0xABCDE,
			Syndrome: MakeSyndrome(AckPositive, 16), MSN: 42,
		},
		{
			SrcIP: simnet.AddrFrom(10, 0, 0, 3), DstIP: simnet.AddrFrom(10, 0, 0, 4),
			OpCode: OpReadRequest, DestQP: 3, PSN: 1, VA: 4096, RKey: 9, DMALen: 8,
		},
		{
			SrcIP: simnet.AddrFrom(192, 168, 1, 1), DstIP: simnet.AddrFrom(192, 168, 1, 2),
			OpCode: OpWriteFirst, DestQP: 0xFFFFFF, PSN: 0xFFFFFF,
			VA: 1 << 40, RKey: 1, DMALen: 2048, Payload: make([]byte, 1024),
		},
		{
			SrcIP: simnet.AddrFrom(192, 168, 1, 1), DstIP: simnet.AddrFrom(192, 168, 1, 2),
			OpCode: OpWriteLast, DestQP: 0xFFFFFF, PSN: 0, Payload: make([]byte, 1024),
		},
		{
			SrcIP: simnet.AddrFrom(1, 2, 3, 4), DstIP: simnet.AddrFrom(4, 3, 2, 1),
			OpCode: OpSendOnly, DestQP: CMQPN, PSN: 0, Payload: []byte("cm message"),
		},
		{
			SrcIP: simnet.AddrFrom(9, 9, 9, 9), DstIP: simnet.AddrFrom(8, 8, 8, 8),
			OpCode: OpReadRespOnly, DestQP: 11, PSN: 100,
			Syndrome: MakeSyndrome(AckPositive, 3), MSN: 5, Payload: []byte{1, 2, 3},
		},
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	for _, p := range samplePackets() {
		t.Run(p.OpCode.String(), func(t *testing.T) {
			frame := p.Marshal()
			if len(frame) != p.WireSize() {
				t.Fatalf("frame length %d != WireSize %d", len(frame), p.WireSize())
			}
			got, err := Unmarshal(frame)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			// Marshal defaults DstPort to the RoCE port.
			want := *p
			if want.DstPort == 0 {
				want.DstPort = UDPPort
			}
			if len(want.Payload) == 0 {
				want.Payload = nil
			}
			if !reflect.DeepEqual(&want, got) {
				t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, &want)
			}
		})
	}
}

// TestMarshalIntoWritesEveryByte: MarshalInto into a buffer full of
// junk yields the bytes Marshal writes into a zeroed one, so transmit
// paths may take an unzeroed pooled buffer.
func TestMarshalIntoWritesEveryByte(t *testing.T) {
	for _, p := range samplePackets() {
		for _, junk := range []byte{0x00, 0xA5, 0xFF} {
			buf := bytes.Repeat([]byte{junk}, p.WireSize())
			p.MarshalInto(buf)
			if want := p.Marshal(); !bytes.Equal(buf, want) {
				t.Errorf("%v: MarshalInto over 0x%02X junk differs from Marshal", p.OpCode, junk)
			}
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := samplePackets()[0]
	frame := p.Marshal()

	tests := []struct {
		name   string
		mutate func([]byte)
	}{
		{"truncated", func(f []byte) {}}, // handled below with slicing
		{"payload bit flip", func(f []byte) { f[70] ^= 0x01 }},
		{"psn bit flip", func(f []byte) { f[51] ^= 0x80 }},
		{"bad ethertype", func(f []byte) { f[12] = 0x86 }},
		{"bad ip checksum", func(f []byte) { f[24] ^= 0xFF }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := append([]byte(nil), frame...)
			if tt.name == "truncated" {
				f = f[:BaseHeaderBytes-1]
			} else {
				tt.mutate(f)
			}
			if _, err := Unmarshal(f); err == nil {
				t.Fatal("Unmarshal accepted a corrupted frame")
			}
		})
	}
}

func TestWireSizeComposition(t *testing.T) {
	tests := []struct {
		op      OpCode
		payload int
		want    int
	}{
		{OpAcknowledge, 0, BaseHeaderBytes + AETHBytes},
		{OpWriteOnly, 64, BaseHeaderBytes + RETHBytes + 64},
		{OpWriteMiddle, 1024, BaseHeaderBytes + 1024},
		{OpReadRequest, 0, BaseHeaderBytes + RETHBytes},
	}
	for _, tt := range tests {
		p := &Packet{OpCode: tt.op, Payload: make([]byte, tt.payload)}
		if got := p.WireSize(); got != tt.want {
			t.Errorf("WireSize(%v, %dB) = %d, want %d", tt.op, tt.payload, got, tt.want)
		}
	}
}

func TestSyndrome(t *testing.T) {
	s := MakeSyndrome(AckPositive, 16)
	if s.Type() != AckPositive || s.Value() != 16 {
		t.Fatalf("ACK syndrome decode = (%v, %d)", s.Type(), s.Value())
	}
	s = MakeSyndrome(AckNAK, NakRemoteAccessError)
	if s.Type() != AckNAK || s.Value() != NakRemoteAccessError {
		t.Fatalf("NAK syndrome decode = (%v, %d)", s.Type(), s.Value())
	}
	s = MakeSyndrome(AckRNR, 5)
	if s.Type() != AckRNR || s.Value() != 5 {
		t.Fatalf("RNR syndrome decode = (%v, %d)", s.Type(), s.Value())
	}
	// Values are clamped to 5 bits.
	s = MakeSyndrome(AckPositive, 0xFF)
	if s.Value() != 0x1F {
		t.Fatalf("syndrome value not masked: %d", s.Value())
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpWriteFirst.HasRETH() || OpWriteMiddle.HasRETH() || OpWriteLast.HasRETH() {
		t.Fatal("RETH predicate wrong for write chain")
	}
	if !OpAcknowledge.HasAETH() || OpAcknowledge.HasPayload() {
		t.Fatal("ACK header predicates wrong")
	}
	if OpReadRespMiddle.HasAETH() || !OpReadRespFirst.HasAETH() {
		t.Fatal("read response AETH predicate wrong")
	}
	if !OpWriteOnly.EndsMessage() || OpWriteFirst.EndsMessage() || OpWriteMiddle.EndsMessage() {
		t.Fatal("EndsMessage predicate wrong")
	}
}

// Property: encode→decode is the identity for arbitrary valid packets.
func TestRoundtripProperty(t *testing.T) {
	ops := []OpCode{
		OpSendOnly, OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteOnly,
		OpReadRequest, OpReadRespFirst, OpReadRespMiddle, OpReadRespLast,
		OpReadRespOnly, OpAcknowledge,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Packet{
			SrcIP:   simnet.Addr(rng.Uint32()),
			DstIP:   simnet.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()),
			OpCode:  ops[rng.Intn(len(ops))],
			DestQP:  rng.Uint32() & QPNMask,
			PSN:     rng.Uint32() & PSNMask,
			AckReq:  rng.Intn(2) == 0,
		}
		if p.OpCode.HasRETH() {
			p.VA = rng.Uint64()
			p.RKey = rng.Uint32()
			p.DMALen = rng.Uint32()
		}
		if p.OpCode.HasAETH() {
			p.Syndrome = Syndrome(rng.Uint32())
			p.MSN = rng.Uint32() & PSNMask
		}
		if p.OpCode.HasPayload() {
			n := rng.Intn(1025)
			if n > 0 {
				p.Payload = make([]byte, n)
				rng.Read(p.Payload)
			}
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		want := *p
		want.DstPort = UDPPort
		return reflect.DeepEqual(&want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
