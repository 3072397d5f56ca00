// Package p4ce implements the paper's contribution: transparent RDMA
// group communication inside a programmable switch. The data plane
// multicasts the leader's RDMA writes to every replica — rewriting the
// IP, UDP and InfiniBand headers of each copy so every endpoint keeps
// the illusion of a point-to-point connection — and aggregates the
// replicas' acknowledgments, forwarding a single ACK to the leader once
// f positive acknowledgments have arrived (scatter §IV-B, gather
// §IV-C). The control plane captures ConnectRequests addressed to the
// switch, fans the handshake out to the replicas named in the request's
// private data, and programs the data-plane tables and the multicast
// engine (§IV-A).
//
// Both planes are tofino programs/agents: the data plane runs in the
// switch pipeline under the roce payload-aliasing rule, and the control
// plane is the switch-CPU agent driving cm handshakes. Package core
// mounts the leader side of the illusion.
//
// # Group state ownership
//
// Each installed group owns a multicast group id and three stateful
// register arrays (numRecv, slotPSN, credits) named under "p4ce/g<id>".
// Group ids are allocated monotonically and never reused, so register
// names cannot collide across a leader's re-handshakes; a group's
// registers are freed when the group is explicitly destroyed or its
// setup is rejected. Multiple shards (independent consensus groups)
// coexist on one switch, each under its own group id.
//
// # Multi-switch fabrics
//
// The control plane always sees the switches through a FabricView
// (package fabric builds it); a single switch is the one-rack fabric.
// The same program runs on every ToR of a leaf-spine fabric, and
// NewControlPlane installs each group hierarchically: the leader's ToR
// is the root (real gather registers, majority decision), and each
// remote rack's ToR holds a leaf group that counts its rack's ACKs
// locally and forwards one partial-count ACK toward the root — the
// count rides the ACK's MSN field, which only the requester side
// writes, so the wire format is unchanged. A rack of k replicas thus
// sends one ACK across the spine per round where a per-ACK relay would
// send k. RehomeRack and ReresolveFabricPorts are the failover hooks the fabric supervisor
// calls after a ToR death (standby adoption) or a spine death
// (reroute).
package p4ce
