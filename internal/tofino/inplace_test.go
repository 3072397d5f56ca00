package tofino

import (
	"bytes"
	"math/rand"
	"testing"

	"p4ce/internal/roce"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// rewriteProgram forwards by L3 or multicasts to group 1, and at egress
// applies the next scripted header rewrite to each copy, recording the
// bytes MarshalInto makes of the rewritten copy.
type rewriteProgram struct {
	L3Program
	mcast bool
	kinds []string
	want  [][]byte
}

func (p *rewriteProgram) Ingress(sw *Switch, in PortID, pkt *roce.Packet) IngressResult {
	if p.mcast {
		return IngressResult{Verdict: VerdictMulticast, Group: 1}
	}
	return p.L3Program.Ingress(sw, in, pkt)
}

func (p *rewriteProgram) Egress(sw *Switch, out PortID, rid uint16, pkt *roce.Packet) bool {
	kind := p.kinds[0]
	p.kinds = p.kinds[1:]
	switch kind {
	case "icrc-covered":
		pkt.PSN = (pkt.PSN + 1 + uint32(out)) & roce.PSNMask
		pkt.RKey += uint32(rid)
	case "ip-only":
		pkt.SrcIP = sw.IP()
	case "resized":
		pkt.Payload = pkt.Payload[:len(pkt.Payload)-1]
	case "own-payload":
		pkt.OwnPayload()
		pkt.Payload[0]++
	}
	p.want = append(p.want, pkt.Marshal())
	return true
}

// TestForwardedFrameLeavesAsReceived checks the egress against
// MarshalInto over random header rewrites: every copy's wire bytes equal
// MarshalInto of the rewritten packet, and a copy that is its frame's
// last holder with its size and payload unchanged leaves in the very
// buffer it arrived in, while any other copy is marshalled afresh.
func TestForwardedFrameLeavesAsReceived(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	kinds := []string{"unchanged", "icrc-covered", "ip-only", "resized", "own-payload"}
	for round := 0; round < 200; round++ {
		prog := &rewriteProgram{mcast: round%2 == 1}
		k := sim.NewKernel(5)
		sw := New(k, "tofino", simnet.AddrFrom(10, 0, 0, 254), DefaultConfig())
		sw.SetProgram(prog)
		// Raw frames as they arrive at each host.
		arrived := make([][][]byte, 3)
		var hosts []*simnet.Port
		for i := range arrived {
			host := simnet.NewPort(k, "host", simnet.HandlerFunc(func(_ *simnet.Port, frame []byte) {
				arrived[i] = append(arrived[i], frame)
			}))
			pid, swPort := sw.AddPort("p")
			simnet.Connect(host, swPort, simnet.DefaultLinkConfig())
			sw.BindAddr(simnet.AddrFrom(10, 0, 0, byte(i+1)), pid)
			hosts = append(hosts, host)
		}
		sw.SetMulticastGroup(1, []GroupMember{{Port: 1, RID: 1}, {Port: 2, RID: 2}})
		copies := 1
		if prog.mcast {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			prog.kinds = append(prog.kinds, kinds[rng.Intn(len(kinds))])
		}
		kindsSent := append([]string(nil), prog.kinds...)
		pkt := testPacket(simnet.AddrFrom(10, 0, 0, 1), simnet.AddrFrom(10, 0, 0, 3))
		pkt.Payload = make([]byte, 1+rng.Intn(1024))
		rng.Read(pkt.Payload)
		pkt.PSN = rng.Uint32() & roce.PSNMask
		sent := k.Buffers().Get(pkt.WireSize())
		pkt.MarshalInto(sent)
		hosts[0].Send(sent)
		k.Run()

		var got [][]byte
		for _, frames := range arrived[1:] {
			got = append(got, frames...)
		}
		if len(got) != copies || len(prog.want) != copies {
			t.Fatalf("round %d: %d frames out, %d egress copies, want %d", round, len(got), len(prog.want), copies)
		}
		reused := 0
		for i, frame := range got {
			if !bytes.Equal(frame, prog.want[i]) {
				t.Fatalf("round %d copy %d (%s): wire bytes differ from MarshalInto", round, i, kindsSent[i])
			}
			same := &frame[0] == &sent[0]
			// Only the last copy can be the frame's last holder.
			last := i == copies-1
			wantSame := last && kindsSent[i] != "resized" && kindsSent[i] != "own-payload"
			if same != wantSame {
				t.Fatalf("round %d copy %d (%s): left in the received buffer = %v, want %v", round, i, kindsSent[i], same, wantSame)
			}
			if same {
				reused++
			}
		}
		if want := uint64(copies - reused); sw.Remarshals() != want {
			t.Fatalf("round %d: %d re-marshals, want %d", round, sw.Remarshals(), want)
		}
	}
}
