package roce

import (
	"bytes"
	"math/rand"
	"testing"

	"p4ce/internal/simnet"
)

// randomPacket draws a packet of a random opcode with random header
// fields and payload.
func randomPacket(rng *rand.Rand) Packet {
	ops := []OpCode{OpSendOnly, OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteOnly,
		OpReadRequest, OpReadRespFirst, OpReadRespMiddle, OpReadRespLast, OpReadRespOnly, OpAcknowledge}
	p := Packet{
		SrcIP:    simnet.Addr(rng.Uint32()),
		DstIP:    simnet.Addr(rng.Uint32()),
		SrcPort:  uint16(rng.Uint32()),
		OpCode:   ops[rng.Intn(len(ops))],
		DestQP:   rng.Uint32() & QPNMask,
		AckReq:   rng.Intn(2) == 0,
		PSN:      rng.Uint32() & PSNMask,
		VA:       rng.Uint64(),
		RKey:     rng.Uint32(),
		DMALen:   rng.Uint32(),
		Syndrome: Syndrome(rng.Uint32()),
		MSN:      rng.Uint32() & PSNMask,
	}
	if p.OpCode.HasPayload() {
		p.Payload = make([]byte, rng.Intn(1100))
		rng.Read(p.Payload)
	}
	return p
}

// normalize zeroes the fields the opcode does not carry, which
// UnmarshalInto leaves zero and MarshalInto ignores.
func normalize(p *Packet) {
	if !p.OpCode.HasRETH() {
		p.VA, p.RKey, p.DMALen = 0, 0, 0
	}
	if !p.OpCode.HasAETH() {
		p.Syndrome, p.MSN = 0, 0
	}
	p.DstPort = UDPPort
}

// TestMarshalInPlaceMatchesMarshalInto rewrites the headers of decoded
// frames the ways a switch program does and checks that the in-place
// re-encode leaves exactly the bytes MarshalInto writes, recomputing the
// ICRC only when a byte it covers changed, and that it refuses a copy
// whose wire size or payload no longer matches the frame.
func TestMarshalInPlaceMatchesMarshalInto(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rewrites := []string{"unchanged", "icrc-covered", "ip-only", "resized", "own-payload", "padded"}
	seen := make(map[string]int)
	for i := 0; i < 3000; i++ {
		orig := randomPacket(rng)
		normalize(&orig)
		frame := orig.Marshal()
		kind := rewrites[rng.Intn(len(rewrites))]
		if kind == "padded" {
			frame = append(frame, 0, 0, 0, 0) // received with trailing bytes
		}
		var p Packet
		if err := UnmarshalInto(frame, &p); err != nil {
			t.Fatalf("UnmarshalInto: %v", err)
		}
		covered := false
		switch kind {
		case "icrc-covered":
			covered = true
			switch rng.Intn(4) {
			case 0:
				p.PSN ^= 1 + uint32(rng.Intn(PSNMask))
			case 1:
				p.DestQP ^= 1 + uint32(rng.Intn(QPNMask))
			case 2:
				p.AckReq = !p.AckReq
			default:
				switch {
				case p.OpCode.HasRETH():
					p.VA++
				case p.OpCode.HasAETH():
					p.MSN = (p.MSN + 1) & PSNMask
				default:
					p.PSN = (p.PSN + 1) & PSNMask
				}
			}
		case "ip-only":
			p.SrcIP, p.DstIP = p.DstIP, simnet.Addr(rng.Uint32())
			p.SrcPort++
		case "resized":
			switch {
			case len(p.Payload) > 0:
				p.Payload = p.Payload[:len(p.Payload)-1]
			case p.OpCode == OpAcknowledge:
				p.OpCode = OpSendOnly // drops the AETH
			default:
				p.OpCode = OpAcknowledge
			}
		case "own-payload":
			if len(p.Payload) == 0 {
				kind = "unchanged"
			}
			p.OwnPayload()
		}
		seen[kind]++
		before := append([]byte(nil), frame...)
		want := p.Marshal()
		fallBack := kind == "resized" || kind == "own-payload" || kind == "padded"
		if ok := p.MarshalInPlace(frame); ok == fallBack {
			t.Fatalf("%s %v: MarshalInPlace = %v, want %v", kind, p.OpCode, ok, !fallBack)
		}
		if fallBack {
			if !bytes.Equal(frame, before) {
				t.Fatalf("%s %v: refused re-encode changed the frame", kind, p.OpCode)
			}
			continue
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("%s %v: in-place frame differs from MarshalInto", kind, p.OpCode)
		}
		// Again over a frame whose ICRC was garbled after decode: only a
		// re-encode that recomputes the ICRC repairs it.
		garbled := append([]byte(nil), before...)
		garbled[len(garbled)-1] ^= 0xFF
		q := p
		if len(q.Payload) > 0 {
			q.Payload = garbled[len(garbled)-ICRCBytes-len(q.Payload) : len(garbled)-ICRCBytes]
		}
		if !q.MarshalInPlace(garbled) {
			t.Fatalf("%s %v: refused the garbled copy", kind, p.OpCode)
		}
		if repaired := bytes.Equal(garbled, want); repaired != covered {
			t.Fatalf("%s %v: ICRC recomputed = %v, want %v", kind, p.OpCode, repaired, covered)
		}
	}
	for _, k := range rewrites {
		if seen[k] == 0 {
			t.Errorf("no %s case drawn", k)
		}
	}
}

// TestMarshalInPlaceRecomputesICRCOfGrownFrame: a frame received with
// trailing bytes whose copy grows its payload into them ends where the
// received ICRC did not, so the ICRC is recomputed although no covered
// header byte changed.
func TestMarshalInPlaceRecomputesICRCOfGrownFrame(t *testing.T) {
	orig := samplePackets()[0]
	frame := append(orig.Marshal(), 1, 2, 3, 4)
	var p Packet
	if err := UnmarshalInto(frame, &p); err != nil {
		t.Fatal(err)
	}
	off := len(frame) - ICRCBytes - len(p.Payload) - 4
	p.Payload = frame[off : len(frame)-ICRCBytes]
	want := p.Marshal()
	if !p.MarshalInPlace(frame) || !bytes.Equal(frame, want) {
		t.Fatal("grown in-place frame differs from MarshalInto")
	}
}
