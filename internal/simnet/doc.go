// Package simnet provides the simulated network substrate: full-duplex
// point-to-point links with finite bandwidth, propagation delay and
// per-frame physical-layer overhead, connecting ports that belong to
// simulated devices (host NICs or switch ports). It sits directly on
// the sim kernel; the devices in rnic and tofino own its ports, and
// chaos manipulates its links to inject faults.
//
// A frame handed to Port.Send is serialized onto the link at the link's
// bandwidth (frames queue FIFO behind one another), then propagates for
// the configured delay, and is finally delivered to the peer port's
// handler by one kernel event. That event carries the sender's (time,
// domain, lane, sequence) key; a frame between two ports of one
// scheduling domain is keyed in the kernel's arrival lane, so it sorts
// where a frame from another domain would (see sim.Kernel.SendTo).
// Links can be cut and repaired to model crashes,
// and can drop frames probabilistically to model a lossy fabric.
//
// Port.SendAfter hands a frame over with a device pipeline delay still
// to run: the frame books the wire from max(busy-until, now + delay)
// with no kernel event of its own, and every send-side decision (link
// state, loss, jitter, taps, stats) is taken at hand-off. The rnic NIC
// sends this way; the only event a frame costs is its delivery.
//
// Port.SetRxDelay gives a port the latency of the device behind it: a
// frame sent to the port is delivered that long after its last bit
// arrives, and the receive side (link state, stats, taps) is judged at
// delivery. The tofino switch sets its ingress parser's service time
// there, so a frame meeting an idle parser runs ingress inside its
// delivery; host ports keep zero.
//
// # Frame ownership
//
// Frames are pooled []byte slices from the kernel's Buffers pool. The
// sender relinquishes the frame at Send; the link delivers it to the
// receiving port's handler, and the frame is recycled as soon as that
// handler returns. Receivers that keep bytes past their handler copy
// them first — the same lifetime rule package roce spells out for
// decoded payloads.
package simnet
