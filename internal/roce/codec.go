package roce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"p4ce/internal/simnet"
)

// Codec errors.
var (
	ErrTruncated   = errors.New("roce: frame truncated")
	ErrBadICRC     = errors.New("roce: invariant CRC mismatch")
	ErrBadChecksum = errors.New("roce: IPv4 header checksum mismatch")
	ErrNotRoCE     = errors.New("roce: frame is not RoCE v2")
)

// Marshal encodes the packet into a fresh Ethernet frame.
func (p *Packet) Marshal() []byte {
	buf := make([]byte, p.WireSize())
	p.MarshalInto(buf)
	return buf
}

// MarshalInto encodes the packet into buf, which must be exactly
// WireSize() bytes long.
func (p *Packet) MarshalInto(buf []byte) {
	if len(buf) != p.WireSize() {
		panic(fmt.Sprintf("roce: MarshalInto buffer %d bytes, need %d", len(buf), p.WireSize()))
	}
	off := p.putHeaders(buf)
	copy(buf[off:], p.Payload)
	off += len(p.Payload)

	// Invariant CRC over the transport headers and payload.
	binary.BigEndian.PutUint32(buf[off:off+4], crc32.ChecksumIEEE(buf[42:off]))
}

// MarshalInPlace is MarshalInto over the frame p was decoded from: it
// re-encodes p's headers over frame and leaves the payload bytes where
// they are. It applies only when frame is exactly p's wire size and
// p.Payload still aliases frame at p's payload offset, and reports
// whether it did; otherwise frame is untouched and the caller marshals
// into a fresh buffer. frame must have passed UnmarshalInto and its
// payload bytes must not have changed since, because the ICRC is
// recomputed only if a header byte it covers changed. On success frame
// holds exactly what MarshalInto would have written.
func (p *Packet) MarshalInPlace(frame []byte) bool {
	n := p.WireSize()
	off := n - ICRCBytes - len(p.Payload) // payload offset
	if len(frame) != n || len(p.Payload) > 0 && &p.Payload[0] != &frame[off] {
		return false
	}
	// The received ICRC sits at the end of frame only if the received
	// IPv4 length says frame ends there.
	icrcValid := int(binary.BigEndian.Uint16(frame[16:18])) == n-EthernetBytes
	var old [BTHBytes + RETHBytes + AETHBytes]byte
	covered := frame[42:off]
	copy(old[:], covered)
	p.putHeaders(frame)
	if !icrcValid || !bytes.Equal(old[:len(covered)], covered) {
		binary.BigEndian.PutUint32(frame[n-ICRCBytes:], crc32.ChecksumIEEE(frame[42:n-ICRCBytes]))
	}
	return true
}

// putHeaders writes every header byte in front of the payload — zero
// fields included, so buf need not be zeroed — and returns the payload
// offset.
func (p *Packet) putHeaders(buf []byte) int {
	// Ethernet: locally administered MACs derived from the IP addresses.
	putMAC(buf[0:6], p.DstIP)
	putMAC(buf[6:12], p.SrcIP)
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeIPv4)

	// IPv4.
	ip := buf[14:34]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0    // DSCP/ECN
	binary.BigEndian.PutUint16(ip[2:4], uint16(p.WireSize()-EthernetBytes))
	clear(ip[4:8]) // identification, flags, fragment offset (DF semantics)
	ip[8] = 64     // TTL
	ip[9] = ProtoUDP
	clear(ip[10:12]) // the checksum is computed over a zero field
	binary.BigEndian.PutUint32(ip[12:16], uint32(p.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(p.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip))

	// UDP. Checksum zero (legal for IPv4, standard for RoCE).
	udp := buf[34:42]
	binary.BigEndian.PutUint16(udp[0:2], p.SrcPort)
	dstPort := p.DstPort
	if dstPort == 0 {
		dstPort = UDPPort
	}
	binary.BigEndian.PutUint16(udp[2:4], dstPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(p.WireSize()-EthernetBytes-IPv4Bytes))
	clear(udp[6:8])

	// BTH.
	bth := buf[42:54]
	bth[0] = byte(p.OpCode)
	bth[1] = 0x40                                // migration state bit, as real HCAs set it
	binary.BigEndian.PutUint16(bth[2:4], 0xFFFF) // default partition key
	bth[4] = 0                                   // reserved
	putUint24(bth[5:8], p.DestQP)
	bth[8] = 0
	if p.AckReq {
		bth[8] = 0x80
	}
	putUint24(bth[9:12], p.PSN)

	off := 54
	if p.OpCode.HasRETH() {
		reth := buf[off : off+RETHBytes]
		binary.BigEndian.PutUint64(reth[0:8], p.VA)
		binary.BigEndian.PutUint32(reth[8:12], p.RKey)
		binary.BigEndian.PutUint32(reth[12:16], p.DMALen)
		off += RETHBytes
	}
	if p.OpCode.HasAETH() {
		aeth := buf[off : off+AETHBytes]
		aeth[0] = byte(p.Syndrome)
		putUint24(aeth[1:4], p.MSN)
		off += AETHBytes
	}
	return off
}

// Unmarshal parses an Ethernet frame into a Packet. The payload slice
// references a copy, so the caller may retain it.
func Unmarshal(frame []byte) (*Packet, error) {
	var p Packet
	if err := UnmarshalInto(frame, &p); err != nil {
		return nil, err
	}
	if len(p.Payload) > 0 {
		buf := make([]byte, len(p.Payload))
		copy(buf, p.Payload)
		p.Payload = buf
	}
	return &p, nil
}

// UnmarshalInto parses an Ethernet frame into p, overwriting every
// field. Unlike Unmarshal it does not copy the payload: p.Payload
// aliases frame directly (see the package documentation for the
// ownership contract), which is what keeps the simulator's receive path
// allocation-free. Callers that retain payload bytes past the frame's
// lifetime must copy them.
func UnmarshalInto(frame []byte, p *Packet) error {
	*p = Packet{}
	if len(frame) < BaseHeaderBytes {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return ErrNotRoCE
	}
	ip := frame[14:34]
	if ip[0] != 0x45 || ip[9] != ProtoUDP {
		return ErrNotRoCE
	}
	if ipChecksum(ip) != 0 {
		// A zero result means the stored checksum validates.
		return ErrBadChecksum
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen+EthernetBytes > len(frame) {
		return ErrTruncated
	}
	udp := frame[34:42]
	if binary.BigEndian.Uint16(udp[2:4]) != UDPPort {
		return ErrNotRoCE
	}

	p.SrcIP = simnet.Addr(binary.BigEndian.Uint32(ip[12:16]))
	p.DstIP = simnet.Addr(binary.BigEndian.Uint32(ip[16:20]))
	p.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	p.DstPort = binary.BigEndian.Uint16(udp[2:4])

	bth := frame[42:54]
	p.OpCode = OpCode(bth[0])
	p.DestQP = uint24(bth[5:8])
	p.AckReq = bth[8]&0x80 != 0
	p.PSN = uint24(bth[9:12])

	off := 54
	if p.OpCode.HasRETH() {
		if len(frame) < off+RETHBytes+ICRCBytes {
			return ErrTruncated
		}
		reth := frame[off : off+RETHBytes]
		p.VA = binary.BigEndian.Uint64(reth[0:8])
		p.RKey = binary.BigEndian.Uint32(reth[8:12])
		p.DMALen = binary.BigEndian.Uint32(reth[12:16])
		off += RETHBytes
	}
	if p.OpCode.HasAETH() {
		if len(frame) < off+AETHBytes+ICRCBytes {
			return ErrTruncated
		}
		aeth := frame[off : off+AETHBytes]
		p.Syndrome = Syndrome(aeth[0])
		p.MSN = uint24(aeth[1:4])
		off += AETHBytes
	}
	end := EthernetBytes + totalLen - ICRCBytes
	if end < off {
		return ErrTruncated
	}
	if n := end - off; n > 0 {
		p.Payload = frame[off:end] // aliases the frame; see package doc
	}
	want := binary.BigEndian.Uint32(frame[end : end+ICRCBytes])
	if got := crc32.ChecksumIEEE(frame[42:end]); got != want {
		return ErrBadICRC
	}
	return nil
}

func putMAC(dst []byte, ip simnet.Addr) {
	dst[0] = 0x02 // locally administered, unicast
	dst[1] = 0x50 // 'P'
	binary.BigEndian.PutUint32(dst[2:6], uint32(ip))
}

func putUint24(dst []byte, v uint32) {
	dst[0] = byte(v >> 16)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v)
}

func uint24(src []byte) uint32 {
	return uint32(src[0])<<16 | uint32(src[1])<<8 | uint32(src[2])
}

// ipChecksum computes the IPv4 header checksum. Computing it over a
// header with the checksum field set returns zero iff it validates.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
