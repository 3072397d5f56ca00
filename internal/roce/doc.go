// Package roce implements the RoCE v2 wire format used throughout the
// simulation: Ethernet + IPv4 + UDP framing around the InfiniBand Base
// Transport Header (BTH) and its RDMA/ACK extended transport headers
// (RETH, AETH), with the reliable-connection opcodes, 24-bit packet
// sequence number arithmetic, MTU segmentation, and the connection-
// manager datagrams exchanged during the handshake. Everything that
// touches the wire — the NIC (rnic), the switch programs (tofino,
// p4ce), the tracer — speaks through this package.
//
// The byte layout follows the InfiniBand Architecture Specification
// closely enough that the switch data plane has real header-rewriting
// work to do; the invariant CRC is simplified to an IEEE CRC-32 over
// the transport headers and payload.
//
// # Payload ownership
//
// Packet.Payload is a view, not a copy. The zero-allocation decode path
// (UnmarshalInto) points Payload directly at the payload bytes of the
// frame being parsed, and the simulated devices recycle frames through
// a pool the moment they finish processing them. The contract is:
//
//   - A decoded Payload is valid only until the function that received
//     the frame returns (for NIC consumers: until the QP handler or
//     onRecv callback returns; for switch programs: until the pipeline
//     stage returns). Consumers that retain payload bytes must copy
//     them first — Unmarshal (the copying decode) or OwnPayload do this.
//   - Multicast replication shares one payload buffer across every
//     copy (copy-on-write): header fields live in each copy's own
//     Packet struct and may be rewritten freely, but a pipeline stage
//     that wants to rewrite payload *bytes* must call OwnPayload first
//     or it will corrupt the sibling copies and the original frame.
//   - Marshal/MarshalInto read the payload synchronously, so handing a
//     shared-payload packet to them is always safe.
//   - A forwarded frame may leave in the buffer it arrived in:
//     MarshalInPlace re-encodes a decoded packet's headers over its own
//     frame when the size is unchanged and the payload still aliases
//     the frame, and recomputes the ICRC only if a header byte it covers
//     changed. The bytes are those MarshalInto would write; the caller
//     must be the frame's only holder.
package roce
