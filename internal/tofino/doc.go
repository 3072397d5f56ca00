// Package tofino models an Intel Tofino-class programmable switch with
// a portable-switch-architecture pipeline: per-port ingress and egress
// parsers with finite packets-per-second capacity, a programmable
// ingress that picks a verdict (forward / multicast / punt-to-CPU /
// drop), a hardware multicast replication engine sitting between the
// gresses, a programmable egress that rewrites the per-copy packets,
// and stateful registers whose arithmetic-logic units carry the real
// hardware's restrictions (no variable-to-variable comparisons; minima
// are computed with the subtract-underflow trick the paper describes in
// §IV-D).
//
// Data-plane programs implement the Program interface; the baseline
// program is plain L3 forwarding, and package p4ce provides the paper's
// replication/aggregation program. The switch owns one simnet port per
// cabled host and hands each program decoded roce packets under the
// usual aliasing rule — a stage that rewrites payload bytes must call
// OwnPayload first, because multicast copies share one buffer.
//
// A forwarded frame may leave in the buffer it arrived in. When a copy
// reaches transmission as its frame's last holder — a unicast forward,
// or the last copy of a multicast — with its size unchanged and its
// payload still aliasing the frame, the egress re-encodes its headers
// in place (roce.Packet.MarshalInPlace) and hands the frame to the
// wire: no pooled frame, no payload copy, and no ICRC unless the
// program rewrote a header byte the ICRC covers. Every other copy is
// marshalled into a fresh frame. Both ways put the same bytes on the
// wire.
//
// The pipeline costs one kernel event per outgoing copy (egress). The
// copies of one multicast frame whose egress parser slots end together
// are scheduled back to back for one instant, so their keys are
// adjacent and the kernel queues them as one heap entry, counted as one
// event (see package sim); a unicast or a copy held back by a
// backlogged parser takes an entry of its own. It costs
// none for a frame meeting an idle parser: each switch port has a
// receive delay of one parser service time (simnet.Port.SetRxDelay), so
// a frame is delivered when its parser slot would end and ingress runs
// inside the delivery. That delivery sorts after every event the
// switch's domain has for its instant, where an ingress event would:
// a host's frame by its sender's domain, and a frame from another
// switch, which shares the domain, by the kernel's arrival lane (see
// package sim). A frame that finds its parser backlogged costs one
// ingress event. The match-action traversal costs none.
//
// # Register allocation
//
// Stateful registers are a named, finite resource: AllocRegister panics
// on a duplicate name (as the compiler would refuse to fit two arrays
// in one slot), and FreeRegister returns a name to the pool. The
// control plane that programs a group owns its registers and frees them
// when the group is destroyed. A Reboot (power cycle) wipes their
// contents, modelling the ASIC losing state; a Crash/Restore outage
// freezes them.
package tofino
