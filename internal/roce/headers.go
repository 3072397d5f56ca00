package roce

import "p4ce/internal/simnet"

// RoCE v2 well-known constants.
const (
	// UDPPort is the IANA-assigned RoCE v2 destination port.
	UDPPort = 4791
	// EtherTypeIPv4 is the Ethernet type carried by every RoCE v2 frame.
	EtherTypeIPv4 = 0x0800
	// ProtoUDP is the IPv4 protocol number for UDP.
	ProtoUDP = 17
	// CMQPN is the well-known queue pair that receives connection-manager
	// datagrams (the general services interface, QP1).
	CMQPN = 1

	// Header sizes in bytes.
	EthernetBytes = 14
	IPv4Bytes     = 20
	UDPBytes      = 8
	BTHBytes      = 12
	RETHBytes     = 16
	AETHBytes     = 4
	ICRCBytes     = 4

	// BaseHeaderBytes is the overhead every RoCE v2 packet carries.
	BaseHeaderBytes = EthernetBytes + IPv4Bytes + UDPBytes + BTHBytes + ICRCBytes

	// PSNMask bounds the 24-bit packet sequence number space.
	PSNMask = 1<<24 - 1
	// QPNMask bounds the 24-bit queue pair number space.
	QPNMask = 1<<24 - 1
)

// OpCode is the BTH operation code. Values are the reliable-connection
// (RC) transport opcodes from the InfiniBand specification.
type OpCode uint8

// RC transport opcodes used by the simulation.
const (
	OpSendOnly       OpCode = 0x04
	OpWriteFirst     OpCode = 0x06
	OpWriteMiddle    OpCode = 0x07
	OpWriteLast      OpCode = 0x08
	OpWriteOnly      OpCode = 0x0A
	OpReadRequest    OpCode = 0x0C
	OpReadRespFirst  OpCode = 0x0D
	OpReadRespMiddle OpCode = 0x0E
	OpReadRespLast   OpCode = 0x0F
	OpReadRespOnly   OpCode = 0x10
	OpAcknowledge    OpCode = 0x11
)

// String returns the spec-style opcode name.
func (o OpCode) String() string {
	switch o {
	case OpSendOnly:
		return "SEND_ONLY"
	case OpWriteFirst:
		return "RDMA_WRITE_FIRST"
	case OpWriteMiddle:
		return "RDMA_WRITE_MIDDLE"
	case OpWriteLast:
		return "RDMA_WRITE_LAST"
	case OpWriteOnly:
		return "RDMA_WRITE_ONLY"
	case OpReadRequest:
		return "RDMA_READ_REQUEST"
	case OpReadRespFirst:
		return "RDMA_READ_RESPONSE_FIRST"
	case OpReadRespMiddle:
		return "RDMA_READ_RESPONSE_MIDDLE"
	case OpReadRespLast:
		return "RDMA_READ_RESPONSE_LAST"
	case OpReadRespOnly:
		return "RDMA_READ_RESPONSE_ONLY"
	case OpAcknowledge:
		return "ACKNOWLEDGE"
	default:
		return "UNKNOWN"
	}
}

// HasRETH reports whether packets with this opcode carry an RDMA
// extended transport header (virtual address, R_key, DMA length).
func (o OpCode) HasRETH() bool {
	return o == OpWriteFirst || o == OpWriteOnly || o == OpReadRequest
}

// HasAETH reports whether packets with this opcode carry an ACK extended
// transport header (syndrome, message sequence number).
func (o OpCode) HasAETH() bool {
	switch o {
	case OpAcknowledge, OpReadRespFirst, OpReadRespLast, OpReadRespOnly:
		return true
	}
	return false
}

// HasPayload reports whether this opcode may carry payload bytes.
func (o OpCode) HasPayload() bool {
	switch o {
	case OpReadRequest, OpAcknowledge:
		return false
	}
	return true
}

// IsWrite reports whether the opcode is part of an RDMA write message.
func (o OpCode) IsWrite() bool {
	switch o {
	case OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteOnly:
		return true
	}
	return false
}

// IsReadResponse reports whether the opcode is part of a read response.
func (o OpCode) IsReadResponse() bool {
	switch o {
	case OpReadRespFirst, OpReadRespMiddle, OpReadRespLast, OpReadRespOnly:
		return true
	}
	return false
}

// EndsMessage reports whether this packet is the final packet of its
// message (and therefore the one that elicits / carries completion).
func (o OpCode) EndsMessage() bool {
	switch o {
	case OpWriteLast, OpWriteOnly, OpReadRespLast, OpReadRespOnly,
		OpSendOnly, OpReadRequest, OpAcknowledge:
		return true
	}
	return false
}

// AckType classifies the AETH syndrome.
type AckType uint8

// Syndrome classes, encoded in syndrome bits [6:5] per the IB spec.
const (
	AckPositive AckType = 0 // ACK: low 5 bits carry the credit count
	AckRNR      AckType = 1 // receiver-not-ready NAK: low bits carry timer
	AckNAK      AckType = 3 // NAK: low 5 bits carry the error code
)

// NAK codes (syndrome bits [4:0] when the class is AckNAK).
const (
	NakPSNSequenceError  uint8 = 0
	NakInvalidRequest    uint8 = 1
	NakRemoteAccessError uint8 = 2
	NakRemoteOpError     uint8 = 3
	NakInvalidRDRequest  uint8 = 4
)

// Syndrome is the 8-bit AETH syndrome field.
type Syndrome uint8

// MakeSyndrome packs an acknowledgment class and 5-bit value.
func MakeSyndrome(t AckType, value uint8) Syndrome {
	return Syndrome(uint8(t)<<5 | value&0x1F)
}

// Type returns the acknowledgment class.
func (s Syndrome) Type() AckType { return AckType(s >> 5 & 0x3) }

// Value returns the 5-bit payload: credits for ACK, timer for RNR, error
// code for NAK.
func (s Syndrome) Value() uint8 { return uint8(s) & 0x1F }

// Packet is the parsed form of one RoCE v2 frame. Fields that do not
// apply to the opcode are zero.
type Packet struct {
	// IPv4 layer.
	SrcIP simnet.Addr
	DstIP simnet.Addr
	// UDP layer. DstPort is always UDPPort for RoCE traffic; SrcPort
	// carries flow entropy.
	SrcPort uint16
	DstPort uint16
	// BTH.
	OpCode OpCode
	DestQP uint32 // 24-bit queue pair number
	AckReq bool   // request an acknowledgment for this packet
	PSN    uint32 // 24-bit packet sequence number
	// RETH, valid when OpCode.HasRETH().
	VA     uint64 // remote virtual address
	RKey   uint32 // authorizes access to the remote memory region
	DMALen uint32 // total message length in bytes
	// AETH, valid when OpCode.HasAETH().
	Syndrome Syndrome
	MSN      uint32 // 24-bit message sequence number
	// Payload, valid when OpCode.HasPayload().
	Payload []byte
}

// WireSize returns the encoded frame length in bytes (without the
// physical-layer preamble and inter-frame gap, which the link adds).
func (p *Packet) WireSize() int {
	n := BaseHeaderBytes
	if p.OpCode.HasRETH() {
		n += RETHBytes
	}
	if p.OpCode.HasAETH() {
		n += AETHBytes
	}
	return n + len(p.Payload)
}
